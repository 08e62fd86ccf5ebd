package yield

import "context"

// Blockade is the statistical-blockade estimator: unshifted truncated
// sampling where the calibrated surrogate band screens the bulk and
// only tail candidates past the blockade threshold escalate to an
// exact DRV confirmation. With unit weights the self-normalized sums
// collapse to a plain failure count (ESS = n) and the interval to the
// binomial one. It spends far fewer exact solves than naive
// Monte-Carlo at the same n, but — unlike the importance sampler — its
// resolution is still bounded by 1/n, so it is the cross-check
// estimator for shallower tails, not the 6σ workhorse.
type Blockade struct{}

// Name implements Estimator.
func (Blockade) Name() string { return MethodBlockade }

// Estimate implements Estimator.
func (Blockade) Estimate(ctx context.Context, p Params) (Result, error) {
	return estimate(ctx, p, MethodBlockade, false)
}

// Partial implements Estimator.
func (Blockade) Partial(ctx context.Context, p Params) (Partial, error) {
	_, part, err := run(ctx, p, MethodBlockade, false)
	return part, err
}
