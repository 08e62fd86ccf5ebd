// Command powersim reproduces the paper's §IV.B static power observation
// (EXP-P1): deep-sleep savings versus idle ACT mode across the PVT grid,
// for a healthy regulator and for the worst power-category defect
// (Vreg stuck at VDD).
//
// Usage:
//
//	powersim          # full 45-condition study
//	powersim -hot     # only the 125°C conditions (where static power matters)
//	powersim -csv     # emit CSV
package main

import (
	"flag"
	"fmt"
	"os"

	"sramtest/internal/exp"
	"sramtest/internal/process"
)

func main() {
	var (
		hot = flag.Bool("hot", false, "only 125°C conditions")
		csv = flag.Bool("csv", false, "emit CSV")
	)
	flag.Parse()

	conds := process.Grid()
	if *hot {
		var filtered []process.Condition
		for _, c := range conds {
			if c.TempC >= 125 {
				filtered = append(filtered, c)
			}
		}
		conds = filtered
	}
	rows := exp.PowerSavings(conds)
	if err := exp.PowerReport(rows).Render(os.Stdout, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "powersim:", err)
		os.Exit(1)
	}
	worst := exp.WorstDefectSavingsAtHighTemp(rows)
	fmt.Printf("\nworst Vreg=VDD savings at 125°C: %.1f%% (paper §IV.B: still over 30%%)\n", worst*100)
}
