package cli

import (
	"errors"
	"flag"
	"testing"

	"sramtest/internal/jobs"
	"sramtest/internal/sweep"
)

func TestWorkersFlag(t *testing.T) {
	defer sweep.SetDefaultWorkers(0)

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	apply := Workers(fs)
	if err := fs.Parse([]string{"-workers", "5"}); err != nil {
		t.Fatal(err)
	}
	apply()
	if got := sweep.DefaultWorkers(); got != 5 {
		t.Errorf("DefaultWorkers after apply = %d, want 5", got)
	}
}

func TestWorkersFlagDefaultKeepsEnvFallback(t *testing.T) {
	defer sweep.SetDefaultWorkers(0)
	t.Setenv(sweep.EnvWorkers, "7")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	apply := Workers(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	apply()
	if got := sweep.DefaultWorkers(); got != 7 {
		t.Errorf("unset flag must keep the env fallback: got %d, want 7", got)
	}
}

// criterionSpec parses args with the -criterion flag and returns the
// normalized charac spec the flag's value names, as defectchar builds it.
func criterionSpec(t *testing.T, args ...string) (jobs.Spec, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	name := Criterion(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return jobs.Spec{Kind: jobs.KindCharac, Criterion: *name}.Normalize()
}

func TestCriterionFlag(t *testing.T) {
	spec, err := criterionSpec(t, "-criterion", "noise")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Criterion != "noise" || spec.Noise == nil {
		t.Errorf("-criterion noise gave criterion %q, noise %v; want explicit noise parameters", spec.Criterion, spec.Noise)
	}
}

func TestCriterionFlagDefaultKeepsStatic(t *testing.T) {
	for _, args := range [][]string{nil, {"-criterion", "static"}} {
		spec, err := criterionSpec(t, args...)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Criterion != "" || spec.Noise != nil {
			t.Errorf("%v must keep the static criterion: got %q", args, spec.Criterion)
		}
	}
}

func TestCriterionFlagRejectsUnknown(t *testing.T) {
	if _, err := criterionSpec(t, "-criterion", "bogus"); !errors.Is(err, jobs.ErrBadSpec) {
		t.Errorf("unknown criterion: err = %v, want ErrBadSpec", err)
	}
}
