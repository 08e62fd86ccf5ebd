package exp

import (
	"fmt"
	"io"
	"strings"

	"sramtest/internal/engine"
	"sramtest/internal/march"
	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/report"
	"sramtest/internal/sram"
	"sramtest/internal/testflow"
)

// Table3Result bundles the optimized flow with its inputs.
type Table3Result struct {
	WorstDRV      float64
	Sensitivities []testflow.Sensitivity
	Flow          testflow.Flow
}

// Table3 reproduces Table III (EXP-T3): measure the per-condition defect
// sensitivities and run the covering optimizer. The measure options
// default to the paper's setup (fs corner, 125 °C, CS1 sensitization, all
// 17 Table II defects); restrict opt.Defects for quick runs.
func Table3(opt testflow.MeasureOptions) (Table3Result, error) {
	sens, err := testflow.Measure(opt)
	if err != nil {
		return Table3Result{}, err
	}
	// The flow's Vreg floor is the worst-case DRV of the sensitizing
	// case study at the measurement corner/temperature, from the engine
	// layer's oracle memo.
	cond := process.Condition{Corner: opt.Corner, VDD: 1.1, TempC: opt.TempC}
	worst := engine.CachedDRV1(opt.CS.Variation, cond)
	flow := testflow.Optimize(sens, testflow.DefaultOptimizeOptions(worst))
	return Table3Result{WorstDRV: worst, Sensitivities: sens, Flow: flow}, nil
}

// Table3Report renders the optimized flow in the paper's Table III layout.
func Table3Report(r Table3Result) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Table III — optimized test flow (worst-case DRV_DS = %s)", report.SI(r.WorstDRV, "V")),
		"Iteration", "Maximized defects", "VDD", "Vref", "Vreg (meas.)", "DS time")
	for i, it := range r.Flow.Iterations {
		names := make([]string, len(it.Maximizes))
		for j, d := range it.Maximizes {
			names[j] = d.String()
		}
		t.AddRow(
			fmt.Sprintf("%d", i+1),
			strings.Join(names, ","),
			fmt.Sprintf("%.1fV", it.Cond.VDD),
			it.Cond.Level.String(),
			report.SI(it.MeasuredVreg, "V"),
			report.SI(it.Dwell, "s"),
		)
	}
	return t
}

// SensitivityReport renders the measured sensitivity matrix — one row
// per test condition, one column per defect with its minimal
// DRF-causing resistance ("-" = undetectable there). Shared by cmd/flow
// and the sramd testflow job so both emit identical bytes.
func SensitivityReport(sens []testflow.Sensitivity, defects []regulator.Defect) *report.Table {
	headers := append([]string{"Condition", "fault-free Vreg"}, defectNames(defects)...)
	t := report.NewTable("Measured sensitivities (min DRF resistance per condition)", headers...)
	for _, s := range sens {
		row := []string{s.Cond.String(), report.SI(s.FaultFree, "V")}
		for _, d := range defects {
			r := s.MinRes[d]
			cell := "-"
			if r == r && r <= 1e300 { // not NaN, not +Inf
				cell = report.SI(r, "Ω")
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

func defectNames(ds []regulator.Defect) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

// TestTimeResult carries the EXP-C1 numbers: the March m-LZ complexity
// claim (5N+4) and the optimized-vs-exhaustive flow times.
type TestTimeResult struct {
	PerCell, Constant int     // test length: PerCell·N + Constant
	SingleRun         float64 // one March m-LZ execution (s)
	Optimized         float64 // optimized flow (s)
	Exhaustive        float64 // naive 12-iteration flow (s)
	Reduction         float64 // 1 − iterations/12
}

// TestTime evaluates the §V complexity and test-time claims for the given
// flow on the paper's 4K-word memory.
func TestTime(flow testflow.Flow) TestTimeResult {
	t := march.MarchMLZ()
	p, c := t.Length()
	return TestTimeResult{
		PerCell:    p,
		Constant:   c,
		SingleRun:  t.TestTime(sram.Words, sram.CycleTime),
		Optimized:  flow.TestTime(t, sram.Words, sram.CycleTime),
		Exhaustive: flow.ExhaustiveTestTime(t, sram.Words, sram.CycleTime),
		Reduction:  flow.TimeReduction(),
	}
}

// WriteTestTime writes the §V test-time accounting in the cmd/flow
// layout (also used verbatim by the sramd testflow job).
func WriteTestTime(w io.Writer, r TestTimeResult) error {
	_, err := fmt.Fprintf(w,
		"March m-LZ length: %dN+%d (paper: 5N+4)\n"+
			"single run on 4K words: %s\n"+
			"optimized flow:  %s\n"+
			"exhaustive flow: %s\n"+
			"test-time reduction: %.0f%% (paper: 75%%)\n",
		r.PerCell, r.Constant,
		report.SI(r.SingleRun, "s"),
		report.SI(r.Optimized, "s"),
		report.SI(r.Exhaustive, "s"),
		r.Reduction*100)
	return err
}

// Table3Paper returns the paper's Table III for comparison: per iteration
// (VDD, Vref level, expected Vreg).
func Table3Paper() []struct {
	VDD   float64
	Level regulator.VrefLevel
	Vreg  float64
} {
	return []struct {
		VDD   float64
		Level regulator.VrefLevel
		Vreg  float64
	}{
		{1.0, regulator.L74, 0.740},
		{1.1, regulator.L70, 0.770},
		{1.2, regulator.L64, 0.768},
	}
}
