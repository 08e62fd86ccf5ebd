// Package cli holds the small flag helpers shared by the cmd tools, so
// every binary exposes the same knobs with the same semantics instead of
// each re-implementing them, and Run, the one path from a sweep CLI's
// job spec to its stdout.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"sramtest/internal/cluster"
	"sramtest/internal/engine"
	_ "sramtest/internal/engine/spicebe" // the simulation backend
	"sramtest/internal/jobs"
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

// Criterion registers the standard -criterion flag on fs: the retention
// criterion a job spec's Criterion field names. The empty default is the
// static DRV rule, the paper's criterion; "noise" decides retention from
// accelerated stochastic-transient ensembles with the default
// parameters. The spec validates the name.
func Criterion(fs *flag.FlagSet) *string {
	return fs.String("criterion", "",
		fmt.Sprintf("retention criterion: %s (default static)", strings.Join(engine.CriterionNames(), "|")))
}

// Run writes the bytes of spec's job to stdout: jobs.Run's, or, when
// target is set, those of shards shard jobs posted to target's batch
// endpoint and merged by cluster.RunSharded — the same bytes either
// way. An invalid spec exits with status 2, any other failure with
// status 1, each reported on stderr under prog.
func Run(prog string, spec jobs.Spec, target string, shards int) {
	var (
		out []byte
		err error
	)
	if target != "" {
		out, err = cluster.RunSharded(context.Background(), target, spec, shards)
	} else {
		out, err = jobs.Run(context.Background(), spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		if errors.Is(err, jobs.ErrBadSpec) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	if _, err := os.Stdout.Write(out); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		os.Exit(1)
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
