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

	"sramtest/internal/cli"
	"sramtest/internal/exp"
	"sramtest/internal/jobs"
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

	spec := jobs.Spec{Kind: jobs.KindTestFlow, CSV: *csv,
		TestFlow: &jobs.TestFlowSpec{NoVDDConstraint: *noVDD}}
	if *defectsFlag != "" {
		for _, tok := range strings.Split(*defectsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fmt.Fprintf(os.Stderr, "flow: bad defect %q\n", tok)
				os.Exit(2)
			}
			spec.TestFlow.Defects = append(spec.TestFlow.Defects, n)
		}
	}
	cli.Run("flow", spec, "", 0)
}

func printTime(r exp.TestTimeResult) {
	if err := exp.WriteTestTime(os.Stdout, r); err != nil {
		fmt.Fprintln(os.Stderr, "flow:", err)
		os.Exit(1)
	}
}
