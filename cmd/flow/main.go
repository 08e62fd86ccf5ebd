// Command flow reproduces the paper's Table III: measure every defect's
// detectability at all 12 (VDD, Vref) test conditions and derive the
// optimized March m-LZ flow, then report the test-time reduction.
//
// Usage:
//
//	flow                  # full measurement (17 defects × 12 conditions)
//	flow -defects 1,3,4,16  # restrict to a defect subset (faster)
//	flow -no-vdd-constraint # drop the one-iteration-per-supply rule
//	flow -time              # only print the test-time accounting
//	flow -csv               # emit CSV
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sramtest/internal/cell"
	"sramtest/internal/cli"
	"sramtest/internal/exp"
	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/testflow"
)

func main() {
	var (
		defectsFlag = flag.String("defects", "", "comma-separated defect numbers (default: all 17 Table II defects)")
		noVDD       = flag.Bool("no-vdd-constraint", false, "allow flows that skip supply voltages")
		timeOnly    = flag.Bool("time", false, "print only the test-time accounting for the paper's 3-iteration flow")
		csv         = flag.Bool("csv", false, "emit CSV")
	)
	applyWorkers := cli.Workers(flag.CommandLine)
	startProfile := cli.Profile(flag.CommandLine)
	flag.Parse()
	applyWorkers()
	defer startProfile()()

	if *timeOnly {
		flow := testflow.Flow{Iterations: make([]testflow.Iteration, 3), Candidates: 12}
		printTime(exp.TestTime(flow))
		return
	}

	mopt := testflow.DefaultMeasureOptions()
	if *defectsFlag != "" {
		var ds []regulator.Defect
		for _, tok := range strings.Split(*defectsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || !regulator.Defect(n).Valid() {
				fmt.Fprintf(os.Stderr, "flow: bad defect %q\n", tok)
				os.Exit(2)
			}
			ds = append(ds, regulator.Defect(n))
		}
		mopt.Defects = ds
	}

	fmt.Fprintf(os.Stderr, "measuring %d defects × 12 test conditions at %s/%g°C...\n",
		len(mopt.Defects), mopt.Corner, mopt.TempC)
	sens, err := testflow.Measure(mopt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flow:", err)
		os.Exit(1)
	}

	cond := process.Condition{Corner: mopt.Corner, VDD: 1.1, TempC: mopt.TempC}
	worst := cell.New(mopt.CS.Variation, cond).DRV1()
	oopt := testflow.DefaultOptimizeOptions(worst)
	oopt.RequireAllVDD = !*noVDD
	flow := testflow.Optimize(sens, oopt)

	res := exp.Table3Result{WorstDRV: worst, Sensitivities: sens, Flow: flow}
	t := exp.Table3Report(res)
	if *csv {
		err = t.WriteCSV(os.Stdout)
	} else {
		err = t.Write(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flow:", err)
		os.Exit(1)
	}
	fmt.Println()
	if len(flow.Uncoverable) > 0 {
		fmt.Printf("defects undetectable at every eligible condition: %v\n", flow.Uncoverable)
	}

	// Sensitivity matrix (one row per condition).
	if !*csv {
		_ = exp.SensitivityReport(sens, mopt.Defects).Write(os.Stdout)
		fmt.Println()
	}
	printTime(exp.TestTime(flow))
}

func printTime(r exp.TestTimeResult) {
	if err := exp.WriteTestTime(os.Stdout, r); err != nil {
		fmt.Fprintln(os.Stderr, "flow:", err)
		os.Exit(1)
	}
}
