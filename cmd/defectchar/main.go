// Command defectchar reproduces the paper's Table II: the minimal
// resistive-open defect resistance that causes a data retention fault in
// deep-sleep mode, per defect and case study, minimized over PVT.
//
// Usage:
//
//	defectchar                    # all 17 defects × 5 case studies, reduced grid
//	defectchar -full              # full 45-condition PVT grid (slow)
//	defectchar -defect 16 -cs 1   # a single Table II cell
//	defectchar -criterion noise   # decide retention under the noise criterion
//	defectchar -classify          # re-derive the §IV.B defect categories
//	defectchar -stability         # regulator loop-gain/phase-margin report
//	defectchar -csv               # emit CSV
package main

import (
	"flag"
	"fmt"
	"os"

	"sramtest/internal/cli"
	"sramtest/internal/jobs"
	"sramtest/internal/power"
	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/report"
)

func main() {
	var (
		full      = flag.Bool("full", false, "sweep the full 45-condition PVT grid")
		defect    = flag.Int("defect", 0, "characterize a single defect (1..32)")
		cs        = flag.Int("cs", 0, "restrict to one case study (1..5)")
		classify  = flag.Bool("classify", false, "classify all 32 defects instead of characterizing")
		stability = flag.Bool("stability", false, "report the regulator's loop stability across PVT")
		csv       = flag.Bool("csv", false, "emit CSV")
	)
	applyWorkers := cli.Workers(flag.CommandLine)
	criterion := cli.Criterion(flag.CommandLine)
	startProfile := cli.Profile(flag.CommandLine)
	flag.Parse()
	applyWorkers()
	defer startProfile()()

	if *classify {
		runClassify()
		return
	}
	if *stability {
		runStability()
		return
	}

	// 0 selects every defect or case study (the spec's empty list).
	spec := jobs.Spec{Kind: jobs.KindCharac, CSV: *csv, Criterion: *criterion,
		Charac: &jobs.CharacSpec{Full: *full}}
	if *defect != 0 {
		spec.Charac.Defects = []int{*defect}
	}
	if *cs != 0 {
		spec.Charac.CaseStudies = []int{*cs}
	}
	cli.Run("defectchar", spec, "", 0)
}

// runStability verifies the regulator design itself: loop gain, phase
// margin, crossover and fault-free DS-entry undershoot across PVT — the
// AC-analysis capability that drove the compensation design (DESIGN.md).
func runStability() {
	t := report.NewTable("Regulator loop stability (fault-free, per-VDD flow level)",
		"Condition", "Vreg", "DC gain", "crossover", "phase margin", "DS-entry min")
	for _, corner := range []process.Corner{process.FS, process.TT, process.SF} {
		for _, vdd := range process.Supplies() {
			for _, temp := range []float64{-30, 125} {
				cond := process.Condition{Corner: corner, VDD: vdd, TempC: temp}
				pm := power.NewModel(cond)
				r := regulator.Build(cond, pm.LoadFunc(), regulator.DefaultParams())
				r.SetVref(regulator.SelectFor(vdd))
				vreg, err := r.FaultFreeVreg()
				if err != nil {
					fmt.Fprintln(os.Stderr, "defectchar:", err)
					os.Exit(1)
				}
				mag, _, err := r.LoopGain([]float64{1})
				if err != nil {
					fmt.Fprintln(os.Stderr, "defectchar:", err)
					os.Exit(1)
				}
				pmDeg, fc, err := r.PhaseMargin()
				if err != nil {
					fmt.Fprintln(os.Stderr, "defectchar:", err)
					os.Exit(1)
				}
				wf, err := r.DSEntry(1e-3)
				if err != nil {
					fmt.Fprintln(os.Stderr, "defectchar:", err)
					os.Exit(1)
				}
				_, min := wf.Min("vddcc")
				t.AddRow(cond.String(),
					report.SI(vreg, "V"),
					fmt.Sprintf("%.1fdB", mag[0]),
					report.SI(fc, "Hz"),
					fmt.Sprintf("%.1f°", pmDeg),
					report.SI(min, "V"))
			}
		}
	}
	if err := t.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "defectchar:", err)
		os.Exit(1)
	}
}

func runClassify() {
	cond := process.Condition{Corner: process.FS, VDD: 1.0, TempC: 125}
	pm := power.NewModel(cond)
	r := regulator.Build(cond, pm.LoadFunc(), regulator.DefaultParams())
	r.SetVref(regulator.SelectFor(cond.VDD))
	t := report.NewTable("Defect classification (§IV.B categories)", "Defect", "Simulated", "Paper (Fig. 5)", "Description")
	for _, d := range regulator.All() {
		cat, err := r.Classify(d)
		if err != nil {
			fmt.Fprintln(os.Stderr, "defectchar:", err)
			os.Exit(1)
		}
		info := regulator.Lookup(d)
		t.AddRow(d.String(), cat.String(), info.Expected.String(), info.Desc)
	}
	if err := t.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "defectchar:", err)
		os.Exit(1)
	}
}
