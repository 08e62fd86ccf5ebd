// Command drv reproduces the core-cell stability experiments of the
// paper's Section III: Table I (case-study retention voltages), Fig. 4
// (per-transistor Vth-variation sweeps) and the Section V DS-dwell study.
//
// Usage:
//
//	drv -table1            # Table I on the full corner×temperature grid
//	drv -fig4 [-points N]  # Fig. 4(a)/(b) sweeps
//	drv -dwell             # flip time vs undervoltage margin
//	drv -mc N              # Monte-Carlo DRV distribution of N random cells
//	drv -quick             # restrict any of the above to the dominant PVT conditions
//	drv -csv               # emit tables as CSV instead of ASCII
package main

import (
	"flag"
	"fmt"
	"os"

	"sramtest/internal/cell"
	"sramtest/internal/cli"
	"sramtest/internal/exp"
	"sramtest/internal/jobs"
	"sramtest/internal/num"
	"sramtest/internal/process"
	"sramtest/internal/report"
)

func main() {
	var (
		table1 = flag.Bool("table1", false, "reproduce Table I")
		fig4   = flag.Bool("fig4", false, "reproduce Fig. 4")
		dwell  = flag.Bool("dwell", false, "run the DS-dwell flip-time study")
		mc     = flag.Int("mc", 0, "Monte-Carlo: sample N random cells' DRV distribution")
		points = flag.Int("points", 13, "sigma points for -fig4")
		quick  = flag.Bool("quick", false, "use only the dominant PVT conditions")
		csv    = flag.Bool("csv", false, "emit CSV")
	)
	applyWorkers := cli.Workers(flag.CommandLine)
	startProfile := cli.Profile(flag.CommandLine)
	flag.Parse()
	applyWorkers()
	defer startProfile()()
	if !*table1 && !*fig4 && !*dwell && *mc == 0 {
		*table1 = true
	}

	conds := cell.DRVConditions()
	if *quick {
		conds = []process.Condition{
			{Corner: process.FS, VDD: 1.1, TempC: 125},
			{Corner: process.FS, VDD: 1.1, TempC: -30},
		}
	}

	emit := func(t *report.Table) {
		if err := report.RenderAll(os.Stdout, *csv, t); err != nil {
			fmt.Fprintln(os.Stderr, "drv:", err)
			os.Exit(1)
		}
	}

	if *table1 {
		rows := exp.Table1(conds)
		emit(exp.Table1Report(rows))
	}
	if *fig4 {
		res := exp.Fig4(num.Linspace(-6, 6, *points), conds)
		a, b := exp.Fig4Plots(res)
		if err := a.Write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "drv:", err)
			os.Exit(1)
		}
		fmt.Println()
		if err := b.Write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "drv:", err)
			os.Exit(1)
		}
		fmt.Println()
		if bad := exp.Fig4Observations(res); len(bad) != 0 {
			fmt.Println("WARNING: paper observations violated:")
			for _, s := range bad {
				fmt.Println("  -", s)
			}
		} else {
			fmt.Println("Paper §III.B observations 1 and 2: hold.")
		}
	}
	if *mc > 0 {
		cli.Run("drv", jobs.Spec{Kind: jobs.KindExp, CSV: *csv, Exp: &jobs.ExpSpec{Samples: *mc}}, "", 0)
	}
	if *dwell {
		// Both temperature extremes: hot cells flip within ns of the DS
		// entry, while cold cells leak so slowly that the flip can take
		// longer than the whole dwell — the paper's argument for a DS
		// time of at least 1 ms.
		v := process.Variation{process.MPcc1: -3, process.MNcc1: -3}
		for _, tempC := range []float64{125, -30} {
			cond := process.Condition{Corner: process.FS, VDD: 1.0, TempC: tempC}
			pts := exp.DwellTime(v, cond, nil, 200e-3)
			tbl := exp.DwellReport(pts, 1e-3)
			tbl.Title += fmt.Sprintf(" at %g°C", tempC)
			emit(tbl)
		}
	}
}
