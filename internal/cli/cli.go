// Package cli holds the small flag helpers shared by the cmd tools, so
// every binary exposes the same knobs with the same semantics instead of
// each re-implementing them.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"sramtest/internal/engine"
	_ "sramtest/internal/engine/spicebe" // the simulation backend
	"sramtest/internal/sweep"
)

// Workers registers the standard -workers flag on fs and returns an
// apply function to call after fs.Parse: it installs the parsed value as
// the process-wide sweep default (sweep.SetDefaultWorkers), preserving
// the usual fallback chain — flag, then $SRAMTEST_WORKERS, then
// GOMAXPROCS. Worker count never affects results, only wall-clock time.
func Workers(fs *flag.FlagSet) (apply func()) {
	n := fs.Int("workers", 0, "parallel sweep workers (0 = $SRAMTEST_WORKERS or GOMAXPROCS)")
	return func() { sweep.SetDefaultWorkers(*n) }
}

// Criterion registers the standard -criterion flag on fs and returns an
// apply function to call after fs.Parse: it resolves the chosen
// retention criterion and installs it as the process-wide default
// (engine.SetDefaultCriterion), so every evaluation whose options leave
// the criterion nil follows the flag. The empty value keeps the static
// DRV rule — the paper's criterion and the pre-seam behavior, byte for
// byte. "noise" switches retention decisions to the accelerated
// stochastic-transient ensemble with the engine's default NoiseParams.
func Criterion(fs *flag.FlagSet) (apply func() error) {
	name := fs.String("criterion", "",
		fmt.Sprintf("retention criterion: %s (default static)", strings.Join(engine.CriterionNames(), "|")))
	return func() error {
		c, err := engine.ResolveCriterion(*name)
		if err != nil {
			return err
		}
		engine.SetDefaultCriterion(c)
		return nil
	}
}

// Profile registers the standard -cpuprofile/-memprofile flags on fs and
// returns a start function to call after fs.Parse. start begins CPU
// profiling (when requested) and returns a stop function the caller must
// defer: stop ends the CPU profile and writes the heap profile. Errors
// are reported on stderr rather than aborting the run — a failed profile
// must never cost a finished sweep.
func Profile(fs *flag.FlagSet) (start func() (stop func())) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem := fs.String("memprofile", "", "write a heap profile to this file on exit")
	return func() func() {
		var cpuFile *os.File
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			} else if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
				f.Close()
			} else {
				cpuFile = f
			}
		}
		return func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if *mem != "" {
				f, err := os.Create(*mem)
				if err != nil {
					fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC() // materialize the final live set
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				}
			}
		}
	}
}
