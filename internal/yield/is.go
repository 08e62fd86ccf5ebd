package yield

import "context"

// ImportanceSampler is the mean-shifted importance-sampling estimator:
// samples come from an equal mixture of the truncated variation law
// shifted onto the failure boundary and its mirror image, every sample
// carries its likelihood ratio, and the estimate is self-normalized
// with an ESS-aware confidence interval. It reaches 5–6σ tails with
// thousands of samples where naive Monte-Carlo would need billions.
type ImportanceSampler struct{}

// Name implements Estimator.
func (ImportanceSampler) Name() string { return MethodIS }

// Estimate implements Estimator.
func (ImportanceSampler) Estimate(ctx context.Context, p Params) (Result, error) {
	return estimate(ctx, p, MethodIS, true)
}

// Partial implements Estimator.
func (ImportanceSampler) Partial(ctx context.Context, p Params) (Partial, error) {
	_, part, err := run(ctx, p, MethodIS, true)
	return part, err
}
