// Command diagnose builds and applies the fault dictionary: given the
// failure signature the optimized March m-LZ flow observes on a failing
// device, which regulator defect (and roughly which resistance) caused
// it?
//
// Usage:
//
//	diagnose build [-o path] [-defects 1,3] [-cs 1,3] [-decades 1e5,1e6]
//	               [-base-only] [-workers N]
//	diagnose match -defect N -res R [-cs CS1-1] [-dict path]
//	diagnose adaptive -defect N -res R [-cs CS1-1] [-dict path]
//	diagnose stats [-dict path]
//	diagnose serve [-dict path] [-addr :8348]
//	diagnose stream [-url http://host:8348] [-dict path] [-n N] [-bin]
//	diagnose verify [-dict path] [-queries N] [-min-speedup X]
//
// build writes the versioned dictionary artifact (default
// results/diag-dictionary.json; -o - streams it to stdout, byte-identical
// to the sramd "diag" job). match simulates a device carrying the given
// defect, observes the three flow conditions and ranks the dictionary
// against the signature. adaptive continues where match stops: it greedily
// observes extra (VDD, Vref) conditions until the ambiguity set collapses.
// stats prints the EXP-DG ambiguity statistics of a dictionary.
//
// The fleet-scale subcommands serve and drive the streaming diagnosis
// endpoint: serve loads a dictionary behind POST /v1/diagnose (a
// diagnosis-only sramd node), stream replays a synthetic BIST fail-log
// stream against a node or coordinator and reports signatures/minute,
// and verify gates the inverted index against the linear matcher
// (byte-identity plus a throughput table) on a real artifact.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"flag"

	"sramtest/internal/cli"
	"sramtest/internal/diag"
	"sramtest/internal/exp"
	"sramtest/internal/jobs"
	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/report"
)

const defaultDict = "results/diag-dictionary.json"

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "build":
		runBuild(os.Args[2:])
	case "match":
		runDiagnose(os.Args[2:], false)
	case "adaptive":
		runDiagnose(os.Args[2:], true)
	case "stats":
		runStats(os.Args[2:])
	case "serve":
		runServe(os.Args[2:])
	case "stream":
		runStream(os.Args[2:])
	case "verify":
		runVerify(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "diagnose: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  diagnose build    [-o path] [-defects 1,3] [-cs 1,3] [-decades 1e5,1e6] [-base-only] [-workers N]
  diagnose match    -defect N -res R [-cs CS1-1] [-dict path] [-workers N]
  diagnose adaptive -defect N -res R [-cs CS1-1] [-dict path] [-workers N]
  diagnose stats    [-dict path]
  diagnose serve    [-dict path] [-addr :8348]
  diagnose stream   [-url http://host:8348] [-dict path] [-n N] [-bin] [-seed S]
  diagnose verify   [-dict path] [-queries N] [-min-speedup X] [-seed S]
`)
}

// runBuild constructs the dictionary through the jobs runner, so the
// bytes written here are exactly the bytes the sramd "diag" job caches.
func runBuild(args []string) {
	fs := flag.NewFlagSet("diagnose build", flag.ExitOnError)
	out := fs.String("o", defaultDict, "output path (- = stdout)")
	defectsFlag := fs.String("defects", "", "comma-separated defect numbers (default: all 17 Table II defects)")
	csFlag := fs.String("cs", "", "comma-separated Table I case-study indices 1..5 (default: all)")
	decadesFlag := fs.String("decades", "", "comma-separated open resistances in Ω (default: 1 kΩ..100 MΩ decades)")
	baseOnly := fs.Bool("base-only", false, "skip the refiner's extra-condition signatures (~4× cheaper build)")
	points := fs.Int("points-per-decade", 0, "subdivide each decade pair into N log-spaced steps (fine fleet grid, interpolated build)")
	applyWorkers := cli.Workers(fs)
	fs.Parse(args)
	applyWorkers()

	spec := jobs.Spec{Kind: jobs.KindDiag, Diag: &jobs.DiagSpec{
		Defects:         parseInts(*defectsFlag, "defect"),
		CaseStudies:     parseInts(*csFlag, "case study"),
		Decades:         parseFloats(*decadesFlag),
		BaseOnly:        *baseOnly,
		PointsPerDecade: *points,
	}}
	norm, err := spec.Normalize()
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		os.Exit(2)
	}
	nconds := len(diag.DefaultFlowConditions())
	if !norm.Diag.BaseOnly {
		nconds += len(diag.ExtraConditions(diag.DefaultFlowConditions()))
	}
	ndec := len(norm.Diag.Decades)
	if norm.Diag.PointsPerDecade > 1 {
		ndec = len(diag.FineDecades(norm.Diag.Decades, norm.Diag.PointsPerDecade))
	}
	ncand := len(norm.Diag.Defects) * ndec * 2 * len(norm.Diag.CaseStudies)
	fmt.Fprintf(os.Stderr, "building dictionary: %d candidates × %d conditions...\n", ncand, nconds)

	b, err := jobs.Run(context.Background(), norm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		os.Exit(1)
	}
	if *out == "-" {
		os.Stdout.Write(b)
		return
	}
	if dir := filepath.Dir(*out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "diagnose:", err)
			os.Exit(1)
		}
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		os.Exit(1)
	}
	d, err := diag.Decode(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d entries, %d undetected escapes\n",
		*out, len(d.Entries), d.Undetected)
}

// runDiagnose simulates a device carrying the given candidate defect,
// observes the dictionary's flow conditions and matches — and, for the
// adaptive subcommand, refines with extra conditions.
func runDiagnose(args []string, adaptive bool) {
	name := "diagnose match"
	if adaptive {
		name = "diagnose adaptive"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	dict := fs.String("dict", defaultDict, "dictionary artifact (see diagnose build)")
	defectN := fs.Int("defect", 0, "injected defect number (required)")
	res := fs.Float64("res", 0, "injected open resistance in Ω (required)")
	csName := fs.String("cs", "CS1-1", "Table I case-study name sensitizing the defect")
	applyWorkers := cli.Workers(fs)
	fs.Parse(args)
	applyWorkers()

	defect := regulator.Defect(*defectN)
	if !defect.Valid() {
		fmt.Fprintf(os.Stderr, "diagnose: -defect %d invalid (want 1..32)\n", *defectN)
		os.Exit(2)
	}
	if *res <= 0 {
		fmt.Fprintln(os.Stderr, "diagnose: -res must be a positive resistance in Ω")
		os.Exit(2)
	}
	cs, ok := findCaseStudy(*csName)
	if !ok {
		fmt.Fprintf(os.Stderr, "diagnose: unknown case study %q (want one of %s)\n",
			*csName, strings.Join(caseStudyNames(), ", "))
		os.Exit(2)
	}

	d, err := diag.Load(*dict)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		os.Exit(1)
	}
	opt := d.Options()
	cand := diag.Candidate{Defect: defect, Res: *res, CS: cs}
	fmt.Fprintf(os.Stderr, "observing %s R=%.3gΩ (%s) at %d flow conditions...\n",
		defect, *res, cs.Name, len(d.Flow))
	sig, err := diag.BuildSignature(opt, cand)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		os.Exit(1)
	}
	printSignature(sig)
	if sig.Pass() {
		fmt.Println("device passes every flow condition — nothing to diagnose (test escape)")
		return
	}

	dg := d.Match(sig)
	printDiagnosis(dg)
	if !adaptive {
		return
	}

	rr, err := d.Refine(sig, diag.SimObserver{Opt: opt, Cand: cand})
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		os.Exit(1)
	}
	fmt.Println()
	if len(rr.Steps) == 0 {
		fmt.Println("adaptive refinement: no extra condition separates the survivors")
	}
	for i, st := range rr.Steps {
		fmt.Printf("refine step %d: observe %s: %d -> %d candidates\n",
			i+1, st.Cond, st.Before, st.After)
	}
	fmt.Println()
	if rr.Resolved {
		m := rr.Final[0]
		fmt.Printf("resolved: %s at R=%.3gΩ (%s)\n", m.Defect, m.Res, m.CS)
		return
	}
	fmt.Printf("unresolved: %d candidates remain\n", len(rr.Final))
	for _, m := range rr.Final {
		fmt.Printf("  %s R=%.3gΩ %s (distance %.3g)\n", m.Defect, m.Res, m.CS, m.Distance)
	}
}

func runStats(args []string) {
	fs := flag.NewFlagSet("diagnose stats", flag.ExitOnError)
	dict := fs.String("dict", defaultDict, "dictionary artifact (see diagnose build)")
	csv := fs.Bool("csv", false, "emit CSV")
	fs.Parse(args)

	d, err := diag.Load(*dict)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		os.Exit(1)
	}
	fmt.Printf("dictionary %s: %s at %s/%g°C, dwell %gs, %d flow + %d extra conditions\n",
		*dict, d.Test, d.Corner, d.TempC, d.Dwell, len(d.Flow), len(d.Extra))
	if err := exp.DiagReport(exp.DiagStatsOf(d)).Render(os.Stdout, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		os.Exit(1)
	}
}

// printSignature renders the observed per-condition signatures.
func printSignature(sig diag.Signature) {
	fmt.Printf("observed %s signature (dwell %gs):\n", sig.Test, sig.Dwell)
	for _, c := range sig.Conds {
		if c.Pass {
			fmt.Printf("  %s: pass\n", c.Cond)
			continue
		}
		fmt.Printf("  %s: FAIL first at element %d op %d, elements %#b, %d miscompares, %d failing addresses (%d rows × %d cols)\n",
			c.Cond, c.Element, c.Op, c.Elements, c.Miscompares, c.Syn.Fails, c.Syn.Rows, c.Syn.Cols)
	}
}

// printDiagnosis renders the matcher's ranking and ambiguity set.
func printDiagnosis(dg diag.Diagnosis) {
	verdict := "nearest matches (no exact dictionary hit)"
	if dg.Exact {
		verdict = "exact dictionary hit"
	}
	fmt.Printf("\n%s; ambiguity set holds %d candidate(s)\n", verdict, len(dg.Ambiguity))
	t := report.NewTable("ranked matches", "rank", "defect", "R (Ω)", "case study", "distance")
	for i, m := range dg.Ranked {
		t.AddRow(strconv.Itoa(i+1), m.Defect.String(),
			strconv.FormatFloat(m.Res, 'g', 3, 64), m.CS,
			strconv.FormatFloat(m.Distance, 'g', 4, 64))
	}
	if err := t.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		os.Exit(1)
	}
	if ds := dg.Defects(); len(ds) > 0 {
		names := make([]string, len(ds))
		for i, d := range ds {
			names[i] = d.String()
		}
		fmt.Printf("ambiguous over defect(s): %s\n", strings.Join(names, ", "))
	}
}

// parseInts parses a comma-separated integer list; empty means default.
func parseInts(s, what string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			fmt.Fprintf(os.Stderr, "diagnose: bad %s %q\n", what, tok)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

// parseFloats parses a comma-separated resistance list; empty means
// default.
func parseFloats(s string) []float64 {
	if s == "" {
		return nil
	}
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "diagnose: bad resistance %q\n", tok)
			os.Exit(2)
		}
		out = append(out, r)
	}
	return out
}

func findCaseStudy(name string) (process.CaseStudy, bool) {
	for _, cs := range process.Table1CaseStudies() {
		if strings.EqualFold(cs.Name, name) {
			return cs, true
		}
	}
	return process.CaseStudy{}, false
}

func caseStudyNames() []string {
	all := process.Table1CaseStudies()
	out := make([]string, len(all))
	for i, cs := range all {
		out[i] = cs.Name
	}
	return out
}
