// Package ref is the public API of the REF reproduction — Resource
// Elasticity Fairness with Sharing Incentives for Multiprocessors
// (Zahedi & Lee, ASPLOS 2014).
//
// REF allocates multiple hardware resources (the case study uses last-level
// cache capacity and memory bandwidth) among agents whose preferences are
// Cobb-Douglas utility functions u(x) = α₀·∏ x_r^{α_r}. The proportional
// elasticity mechanism rescales each agent's elasticities to sum to one and
// hands out each resource in proportion to rescaled elasticity; the
// resulting allocation provides sharing incentives (SI), envy-freeness
// (EF), Pareto efficiency (PE), and strategy-proofness in the large (SPL).
//
// The package re-exports, from the internal implementation:
//
//   - Cobb-Douglas utilities, Leontief baselines, and profile fitting
//     (NewUtility, FitCobbDouglas, ...);
//   - the REF mechanism and the mechanism zoo the paper evaluates against
//     (Allocate, Mechanisms, EqualSlowdown, ...);
//   - SI/EF/PE auditing (Audit, FairnessReport, Tolerance) and Edgeworth-box
//     geometry (NewEdgeworthBox);
//   - the full platform simulator standing in for MARSSx86 + DRAMSim2
//     (SweepWorkload, Workloads, ...);
//   - strategy-proofness analysis (BestResponse, DeviationSweep);
//   - every paper experiment by ID (Experiments, RunExperiment).
//
// A two-agent quickstart:
//
//	u1 := ref.MustNewUtility(1, 0.6, 0.4) // bandwidth-leaning
//	u2 := ref.MustNewUtility(1, 0.2, 0.8) // cache-leaning
//	alloc, err := ref.Allocate([]ref.Agent{
//		{Name: "user1", Utility: u1},
//		{Name: "user2", Utility: u2},
//	}, []float64{24, 12}) // 24 GB/s, 12 MB
//
// yields user1 = (18 GB/s, 4 MB), user2 = (6 GB/s, 8 MB) — the paper's §4.1
// worked example.
package ref

import (
	"io"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/fair"
	"ref/internal/fit"
	"ref/internal/leontief"
	"ref/internal/opt"
)

// Utility is a Cobb-Douglas utility function u(x) = Alpha0·∏ x_r^Alpha[r].
type Utility = cobb.Utility

// Preference orders two allocations from an agent's point of view.
type Preference = cobb.Preference

// Preference relation values.
const (
	Worse       = cobb.Worse
	Indifferent = cobb.Indifferent
	Better      = cobb.Better
)

// NewUtility validates and constructs a Cobb-Douglas utility.
func NewUtility(alpha0 float64, alpha ...float64) (Utility, error) {
	return cobb.New(alpha0, alpha...)
}

// MustNewUtility is NewUtility but panics on invalid parameters.
func MustNewUtility(alpha0 float64, alpha ...float64) Utility {
	return cobb.MustNew(alpha0, alpha...)
}

// LeontiefUtility is the perfect-complements baseline u = min_r x_r/d_r.
type LeontiefUtility = leontief.Utility

// NewLeontief validates and constructs a Leontief utility from a demand
// vector.
func NewLeontief(demand ...float64) (LeontiefUtility, error) {
	return leontief.New(demand...)
}

// DRF computes the Dominant Resource Fairness allocation for Leontief
// agents — the related-work baseline the paper contrasts with REF.
func DRF(agents []LeontiefUtility, capacity []float64) ([][]float64, error) {
	return leontief.DRF(agents, capacity)
}

// Agent pairs a name with a Cobb-Douglas utility.
type Agent = core.Agent

// Allocation is the outcome of the proportional elasticity mechanism.
type Allocation = core.Allocation

// Alloc is an agents × resources allocation matrix.
type Alloc = opt.Alloc

// Allocate runs the REF proportional elasticity mechanism (Equation 13).
func Allocate(agents []Agent, capacity []float64) (*Allocation, error) {
	return core.Allocate(agents, capacity)
}

// CEEI is the Competitive Equilibrium from Equal Incomes equivalent to the
// REF allocation (§4.2): market-clearing prices, equal budgets, and demands
// that coincide with Equation 13.
type CEEI = core.CEEI

// ComputeCEEI builds the CEEI for the economy, exposing the equivalence the
// fairness proof rests on.
func ComputeCEEI(agents []Agent, capacity []float64) (*CEEI, error) {
	return core.ComputeCEEI(agents, capacity)
}

// Profile is a set of (allocation, performance) observations for one agent.
type Profile = fit.Profile

// FitResult is a fitted Cobb-Douglas model with diagnostics (R², RMSLE).
type FitResult = fit.Result

// CrossValidation summarizes leave-one-out validation of a fit.
type CrossValidation = fit.CVResult

// CrossValidateFit reports out-of-sample error of the Cobb-Douglas fit.
func CrossValidateFit(p *Profile) (*CrossValidation, error) {
	return fit.CrossValidate(p)
}

// ReadProfileCSV parses a profile saved with Profile.WriteCSV.
func ReadProfileCSV(r io.Reader) (*Profile, error) {
	return fit.ReadCSV(r)
}

// FitCobbDouglas fits u = α₀·∏ x^α to a performance profile by least
// squares on the log-linearized model (Equation 16).
func FitCobbDouglas(p *Profile) (*FitResult, error) {
	return fit.CobbDouglas(p)
}

// LeontiefFitResult is a best-effort Leontief fit of a profile.
type LeontiefFitResult = fit.LeontiefResult

// FitLeontief fits u ≈ scale·min_r(x_r/d_r) by grid search over demand
// ratios — the expensive, poorly-fitting alternative §2 of the paper
// contrasts with Cobb-Douglas regression.
func FitLeontief(p *Profile, gridPerDim int) (*LeontiefFitResult, error) {
	return fit.Leontief(p, gridPerDim)
}

// OnlineFitter adapts a utility estimate as profiling observations arrive
// (§4.4's on-line profiling loop), starting from the uniform prior
// u = ∏ x^(1/R).
type OnlineFitter = fit.OnlineFitter

// NewOnlineFitter returns a fitter over the given number of resources that
// refits after every refitEach observations.
func NewOnlineFitter(resources, refitEach int) (*OnlineFitter, error) {
	return fit.NewOnlineFitter(resources, refitEach)
}

// NewWindowedFitter is NewOnlineFitter with a sliding observation window so
// the estimate tracks phase-changing workloads.
func NewWindowedFitter(resources, refitEach, window int) (*OnlineFitter, error) {
	return fit.NewWindowedFitter(resources, refitEach, window)
}

// FairnessReport is a combined SI/EF/PE audit of one allocation.
type FairnessReport = fair.Report

// Tolerance bundles the numeric slack used when auditing allocations.
type Tolerance = fair.Tolerance

// DefaultTolerance is appropriate for allocations computed in float64.
func DefaultTolerance() Tolerance { return fair.DefaultTolerance() }

// Audit checks sharing incentives, envy-freeness, and Pareto efficiency of
// an allocation for the given agents.
func Audit(agents []Agent, capacity []float64, x Alloc, tol Tolerance) (FairnessReport, error) {
	utils := make([]cobb.Utility, len(agents))
	for i, a := range agents {
		utils[i] = a.Utility
	}
	return fair.Audit(utils, capacity, x, tol)
}

// EdgeworthBox is the two-agent, two-resource geometry of Figures 1–7:
// envy-free regions, the contract curve, and the fair allocation set.
type EdgeworthBox = fair.Box

// NewEdgeworthBox validates and constructs an Edgeworth box.
func NewEdgeworthBox(u1, u2 Utility, capX, capY float64) (*EdgeworthBox, error) {
	return fair.NewBox(u1, u2, capX, capY)
}
