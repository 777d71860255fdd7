package fair

import (
	"ref/internal/cobb"
	"ref/internal/opt"
)

// Sampled audits: at millions of agents the exact EF audit is O(N²) and
// even exact SI is a full O(N·R) pass, so the serve layer's epoch loop
// audits a sample. The functions here take the *sampled* agents (their
// utilities and allocation rows) together with whatever global facts the
// property needs (total agent count for SI's equal split), and apply the
// same tolerances as the exact audits. A sampled audit can only find
// violations the exact audit would also find — every check it runs is a
// subset of the exact audit's checks — and when the sample covers the
// whole economy it degenerates to the exact audit; the cross-check tests
// assert both.

// SampledSharingIncentives audits SI over a sample: every sampled agent
// must weakly prefer its bundle to the equal split C/totalN, where totalN
// is the full economy's agent count (not the sample size — the outside
// option does not shrink because we audit fewer agents). Violation.Agent
// indexes into the sample.
//
// Deprecated: the serve layer audits sampled SI from cached log margins;
// this form remains for the benchmark harness.
func SampledSharingIncentives(utils []cobb.Utility, cap []float64, x opt.Alloc, totalN int, tol Tolerance) (Result, error) {
	return sharingIncentives(utils, cap, x, nil, totalN, tol)
}

// SampledEnvyFreeness audits EF over all ordered pairs within the sample
// — O(K²) instead of O(N²): EnvyFreeness restricted to the sampled
// sub-economy, so envy between a sampled and an unsampled agent is not
// checked.
//
// Deprecated: use EnvyFreeness or WeightedEnvyFreeness on the sample;
// this alias remains for the benchmark harness.
func SampledEnvyFreeness(utils []cobb.Utility, x opt.Alloc, tol Tolerance) (Result, error) {
	return envyFreeness(utils, x, nil, tol)
}

// Tangency audits only the MRS-agreement half of Pareto efficiency
// (Equation 10) over the given agents, skipping the capacity-exhaustion
// check — the sampled audit verifies exhaustion analytically from the
// maintained weight sums, because a sample's rows never sum to the full
// capacity.
func Tangency(utils []cobb.Utility, x opt.Alloc, tol Tolerance) (Result, error) {
	return paretoEfficiency(utils, nil, x, tol)
}
