// Package fair verifies the game-theoretic properties the REF paper is
// built around: sharing incentives (SI, Equation 3), envy-freeness (EF,
// §3.2), and Pareto efficiency (PE, §3.3). Mechanisms produce allocations;
// this package independently audits them, so the paper's claims ("equal
// slowdown violates SI and EF", "proportional elasticity provides all
// three") become executable checks rather than prose. It also implements
// the Edgeworth-box geometry used in Figures 1–7 for two-agent, two-resource
// economies: envy-free regions, the contract curve, the sharing-incentive
// lens, and the fair allocation set.
package fair

import (
	"errors"
	"fmt"
	"math"

	"ref/internal/cobb"
	"ref/internal/obs"
	"ref/internal/opt"
)

// ErrBadInput reports malformed checker inputs.
var ErrBadInput = errors.New("fair: bad input")

// The package's numeric slack constants, hoisted to one exported set so the
// audits here, the Edgeworth-box geometry, the Pareto certificate search,
// and the property-based oracles in internal/check all agree on what counts
// as a violation and cannot drift apart.
const (
	// EpsUtilityRel is the relative utility slack for exact (closed-form)
	// comparisons: two utilities within this factor are considered equal.
	EpsUtilityRel = 1e-12
	// EpsCapacityRel is the relative slack for capacity exhaustion and
	// feasibility totals.
	EpsCapacityRel = 1e-6
	// EpsTradeGain is the minimum relative utility gain both parties of a
	// bilateral trade must realize before the trade counts as a Pareto
	// improvement.
	EpsTradeGain = 1e-9
)

// Tolerance bundles the numeric slack used when auditing allocations.
// Utilities are floating-point products of powers, so every property is
// checked up to a relative margin.
type Tolerance struct {
	// Rel is the relative slack for utility comparisons (SI, EF).
	Rel float64
	// MRS is the relative slack for marginal-rate-of-substitution equality
	// (PE), which is more sensitive because it involves ratios.
	MRS float64
}

// DefaultTolerance is appropriate for allocations computed in float64.
func DefaultTolerance() Tolerance { return Tolerance{Rel: 1e-9, MRS: 1e-6} }

// SolverTolerance is appropriate for allocations produced by the iterative
// penalty-method solvers in internal/opt, whose constraint tolerance leaves
// residual slack far above float64 rounding.
func SolverTolerance() Tolerance { return Tolerance{Rel: 5e-3, MRS: 0.05} }

// recordCheck counts one property-audit outcome on the installed obs
// registry as ref_fair_checks_total{property=...,result=...}. The enabled
// check precedes the Sprintf so disabled runs pay one pointer load.
func recordCheck(property string, satisfied bool) {
	r := obs.Installed()
	if r == nil {
		return
	}
	result := "fail"
	if satisfied {
		result = "pass"
	}
	r.Counter(fmt.Sprintf("ref_fair_checks_total{property=%q,result=%q}", property, result)).Inc()
}

// Violation describes one failed property instance.
type Violation struct {
	// Property is "SI", "EF", or "PE".
	Property string
	// Agent is the aggrieved agent's index.
	Agent int
	// Other is the envied agent for EF, -1 otherwise.
	Other int
	// Margin quantifies the violation: how much better (relatively) the
	// alternative is than the agent's own bundle.
	Margin float64
}

// String renders the violation for reports.
func (v Violation) String() string {
	switch v.Property {
	case "EF":
		return fmt.Sprintf("EF: agent %d envies agent %d (margin %.3g)", v.Agent, v.Other, v.Margin)
	case "SI":
		return fmt.Sprintf("SI: agent %d prefers the equal split (margin %.3g)", v.Agent, v.Margin)
	default:
		return fmt.Sprintf("%s: agent %d (margin %.3g)", v.Property, v.Agent, v.Margin)
	}
}

// Result is the outcome of one property audit.
type Result struct {
	Satisfied  bool
	Violations []Violation
}

// validate checks the shapes every audit relies on: one row per agent,
// valid utilities, and one common resource count — len(cap) when a
// capacity vector is given, else the first agent's.
func validate(utils []cobb.Utility, cap []float64, x opt.Alloc) error {
	if len(utils) == 0 {
		return fmt.Errorf("%w: no agents", ErrBadInput)
	}
	if len(x) != len(utils) {
		return fmt.Errorf("%w: %d allocation rows for %d agents", ErrBadInput, len(x), len(utils))
	}
	for i, u := range utils {
		if err := u.Validate(); err != nil {
			return fmt.Errorf("%w: agent %d: %v", ErrBadInput, i, err)
		}
		if cap != nil && u.NumResources() != len(cap) {
			return fmt.Errorf("%w: agent %d has %d resources, system has %d", ErrBadInput, i, u.NumResources(), len(cap))
		}
		if u.NumResources() != utils[0].NumResources() {
			return fmt.Errorf("%w: agent %d has %d resources, agent 0 has %d", ErrBadInput, i, u.NumResources(), utils[0].NumResources())
		}
		if len(x[i]) != u.NumResources() {
			return fmt.Errorf("%w: allocation row %d has %d resources, agent has %d", ErrBadInput, i, len(x[i]), u.NumResources())
		}
	}
	return nil
}

// income validates an audit's baseline parameters for n agents and
// returns the income total its baselines divide: Σb when budgets are
// given, else totalN, the agent count the equal split divides among
// (the whole economy's, not the sample's, for a sampled audit). Nil
// budgets mean unit budgets, as in core.AllocateBudgeted.
func income(budgets []float64, totalN, n int) (float64, error) {
	if budgets == nil {
		if totalN < n {
			return 0, fmt.Errorf("%w: total agent count %d below sample size %d", ErrBadInput, totalN, n)
		}
		return float64(totalN), nil
	}
	if len(budgets) != n {
		return 0, fmt.Errorf("%w: %d budgets for %d agents", ErrBadInput, len(budgets), n)
	}
	var bsum float64
	for i, b := range budgets {
		if b <= 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return 0, fmt.Errorf("%w: agent %d budget = %v", ErrBadInput, i, b)
		}
		bsum += b
	}
	return bsum, nil
}

// sharingIncentives is the one SI kernel (Equation 3 and its weighted
// form): every agent must weakly prefer its bundle to its baseline. At
// unit budgets (nil) the baseline is the equal split c/totalN; with
// budgets it is agent i's entitlement (b_i/Σb)·c, the share the
// weighted CEEI guarantees. Audits count as property "SI" or "WSI".
func sharingIncentives(utils []cobb.Utility, cap []float64, x opt.Alloc, budgets []float64, totalN int, tol Tolerance) (Result, error) {
	if err := validate(utils, cap, x); err != nil {
		return Result{}, err
	}
	total, err := income(budgets, totalN, len(utils))
	if err != nil {
		return Result{}, err
	}
	base := make([]float64, len(cap))
	if budgets == nil {
		for r, c := range cap {
			base[r] = c / total
		}
	}
	res := Result{Satisfied: true}
	for i, u := range utils {
		if budgets != nil {
			frac := budgets[i] / total
			for r, c := range cap {
				base[r] = frac * c
			}
		}
		own := u.Eval(x[i])
		baseline := u.Eval(base)
		if own < baseline*(1-tol.Rel) {
			res.Satisfied = false
			res.Violations = append(res.Violations, Violation{
				Property: "SI", Agent: i, Other: -1, Margin: baseline/math.Max(own, 1e-300) - 1,
			})
		}
	}
	recordCheck(weightedLabel("SI", budgets), res.Satisfied)
	return res, nil
}

// envyFreeness is the one EF kernel (§3.2 and its weighted form): agent
// i envies agent j when it prefers j's bundle, scaled by the income
// ratio b_i/b_j when budgets are given, to its own. At unit budgets
// (nil) bundles are compared as they are, with no copy. Audits count as
// property "EF" or "WEF".
func envyFreeness(utils []cobb.Utility, x opt.Alloc, budgets []float64, tol Tolerance) (Result, error) {
	if err := validate(utils, nil, x); err != nil {
		return Result{}, err
	}
	if _, err := income(budgets, len(utils), len(utils)); err != nil {
		return Result{}, err
	}
	res := Result{Satisfied: true}
	var scaled []float64
	for i, u := range utils {
		own := u.Eval(x[i])
		for j := range utils {
			if i == j {
				continue
			}
			bundle := x[j]
			if budgets != nil {
				if scaled == nil {
					scaled = make([]float64, len(x[j]))
				}
				ratio := budgets[i] / budgets[j]
				for r, v := range x[j] {
					scaled[r] = ratio * v
				}
				bundle = scaled
			}
			other := u.Eval(bundle)
			if other > own*(1+tol.Rel) && other > own+1e-300 {
				res.Satisfied = false
				res.Violations = append(res.Violations, Violation{
					Property: "EF", Agent: i, Other: j, Margin: other/math.Max(own, 1e-300) - 1,
				})
			}
		}
	}
	recordCheck(weightedLabel("EF", budgets), res.Satisfied)
	return res, nil
}

// weightedLabel is the ref_fair_checks_total property label: "SI"/"EF"
// at unit budgets, "WSI"/"WEF" when budgets are given.
func weightedLabel(property string, budgets []float64) string {
	if budgets != nil {
		return "W" + property
	}
	return property
}

// SharingIncentives audits Equation 3: every agent weakly prefers its bundle
// to the equal split C/N.
func SharingIncentives(utils []cobb.Utility, cap []float64, x opt.Alloc, tol Tolerance) (Result, error) {
	return sharingIncentives(utils, cap, x, nil, len(utils), tol)
}

// EnvyFreeness audits §3.2: no agent strictly prefers another agent's
// bundle to its own, evaluated with its own utility.
func EnvyFreeness(utils []cobb.Utility, x opt.Alloc, tol Tolerance) (Result, error) {
	return envyFreeness(utils, x, nil, tol)
}

// ParetoEfficiency audits §3.3 for interior allocations: capacity must be
// exhausted and all agents' marginal rates of substitution must agree for
// every resource pair (the tangency condition, Equation 10).
func ParetoEfficiency(utils []cobb.Utility, cap []float64, x opt.Alloc, tol Tolerance) (Result, error) {
	return paretoEfficiency(utils, cap, x, tol)
}

// paretoEfficiency is the one PE kernel: the capacity-exhaustion check
// when a capacity vector is given (nil skips it, as Tangency does), then
// the one MRS-tangency loop. Agents with a zero elasticity for either
// resource of a pair, or a zero bundle entry, are excluded from that
// pair's comparison: their indifference curves are flat in that
// direction and the tangency condition does not bind them.
func paretoEfficiency(utils []cobb.Utility, cap []float64, x opt.Alloc, tol Tolerance) (Result, error) {
	if err := validate(utils, cap, x); err != nil {
		return Result{}, err
	}
	res := Result{Satisfied: true}
	if cap != nil {
		// Capacity exhaustion: strictly monotone utilities mean slack
		// capacity is always a Pareto improvement waiting to happen.
		tot := x.ResourceTotals()
		for r, c := range cap {
			if tot[r] < c*(1-EpsCapacityRel) {
				res.Satisfied = false
				res.Violations = append(res.Violations, Violation{Property: "PE", Agent: -1, Other: r, Margin: 1 - tot[r]/c})
			}
		}
	}
	rN := utils[0].NumResources()
	for r := 0; r < rN; r++ {
		for s := r + 1; s < rN; s++ {
			ref := math.NaN()
			refAgent := -1
			for i, u := range utils {
				if u.Alpha[r] == 0 || u.Alpha[s] == 0 {
					continue
				}
				if x[i][r] <= 0 || x[i][s] <= 0 {
					continue
				}
				m := u.MRS(r, s, x[i])
				if math.IsNaN(ref) {
					ref, refAgent = m, i
					continue
				}
				if math.Abs(m-ref) > tol.MRS*math.Max(math.Abs(ref), 1) {
					res.Satisfied = false
					res.Violations = append(res.Violations, Violation{
						Property: "PE", Agent: i, Other: refAgent, Margin: math.Abs(m-ref) / math.Max(math.Abs(ref), 1e-300),
					})
				}
			}
		}
	}
	recordCheck("PE", res.Satisfied)
	return res, nil
}

// Report is a combined audit of one allocation.
type Report struct {
	SI, EF, PE Result
}

// Fair reports EF ∧ PE, the paper's (economic) definition of fairness.
func (r Report) Fair() bool { return r.EF.Satisfied && r.PE.Satisfied }

// All reports SI ∧ EF ∧ PE.
func (r Report) All() bool { return r.SI.Satisfied && r.EF.Satisfied && r.PE.Satisfied }

// String summarizes the audit as e.g. "SI=✓ EF=✗ PE=✓".
func (r Report) String() string {
	mark := func(b bool) string {
		if b {
			return "✓"
		}
		return "✗"
	}
	return fmt.Sprintf("SI=%s EF=%s PE=%s", mark(r.SI.Satisfied), mark(r.EF.Satisfied), mark(r.PE.Satisfied))
}

// Audit runs all three property checks.
func Audit(utils []cobb.Utility, cap []float64, x opt.Alloc, tol Tolerance) (Report, error) {
	si, err := SharingIncentives(utils, cap, x, tol)
	if err != nil {
		return Report{}, err
	}
	ef, err := EnvyFreeness(utils, x, tol)
	if err != nil {
		return Report{}, err
	}
	pe, err := ParetoEfficiency(utils, cap, x, tol)
	if err != nil {
		return Report{}, err
	}
	return Report{SI: si, EF: ef, PE: pe}, nil
}
