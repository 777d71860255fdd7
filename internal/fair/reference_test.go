package fair

import (
	"fmt"
	"math"

	"ref/internal/cobb"
	"ref/internal/opt"
)

// The functions below are the property audits as they stood before the
// SI, EF and MRS-tangency checks were folded into one kernel each: three
// SI loops (equal split, sampled equal split, budget-weighted
// entitlement), two EF loops plus the sampled alias, and the tangency
// loop twice (inside ParetoEfficiency and in Tangency). They are kept
// verbatim as the differential reference for the kernels; see
// kernel_test.go.

func refSharingIncentives(utils []cobb.Utility, cap []float64, x opt.Alloc, tol Tolerance) (Result, error) {
	if err := validate(utils, cap, x); err != nil {
		return Result{}, err
	}
	n := len(utils)
	equal := make([]float64, len(cap))
	for r, c := range cap {
		equal[r] = c / float64(n)
	}
	res := Result{Satisfied: true}
	for i, u := range utils {
		own := u.Eval(x[i])
		split := u.Eval(equal)
		if own < split*(1-tol.Rel) {
			res.Satisfied = false
			res.Violations = append(res.Violations, Violation{
				Property: "SI", Agent: i, Other: -1, Margin: split/math.Max(own, 1e-300) - 1,
			})
		}
	}
	recordCheck("SI", res.Satisfied)
	return res, nil
}

func refEnvyFreeness(utils []cobb.Utility, x opt.Alloc, tol Tolerance) (Result, error) {
	if err := validate(utils, nil, x); err != nil {
		return Result{}, err
	}
	res := Result{Satisfied: true}
	for i, u := range utils {
		own := u.Eval(x[i])
		for j := range utils {
			if i == j {
				continue
			}
			other := u.Eval(x[j])
			if other > own*(1+tol.Rel) && other > own+1e-300 {
				res.Satisfied = false
				res.Violations = append(res.Violations, Violation{
					Property: "EF", Agent: i, Other: j, Margin: other/math.Max(own, 1e-300) - 1,
				})
			}
		}
	}
	recordCheck("EF", res.Satisfied)
	return res, nil
}

func refParetoEfficiency(utils []cobb.Utility, cap []float64, x opt.Alloc, tol Tolerance) (Result, error) {
	if err := validate(utils, cap, x); err != nil {
		return Result{}, err
	}
	res := Result{Satisfied: true}
	tot := x.ResourceTotals()
	for r, c := range cap {
		if tot[r] < c*(1-EpsCapacityRel) {
			res.Satisfied = false
			res.Violations = append(res.Violations, Violation{Property: "PE", Agent: -1, Other: r, Margin: 1 - tot[r]/c})
		}
	}
	rN := len(cap)
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

func refSampledSharingIncentives(utils []cobb.Utility, cap []float64, x opt.Alloc, totalN int, tol Tolerance) (Result, error) {
	if err := validate(utils, cap, x); err != nil {
		return Result{}, err
	}
	if totalN < len(utils) {
		return Result{}, fmt.Errorf("%w: total agent count %d below sample size %d", ErrBadInput, totalN, len(utils))
	}
	equal := make([]float64, len(cap))
	for r, c := range cap {
		equal[r] = c / float64(totalN)
	}
	res := Result{Satisfied: true}
	for i, u := range utils {
		own := u.Eval(x[i])
		split := u.Eval(equal)
		if own < split*(1-tol.Rel) {
			res.Satisfied = false
			res.Violations = append(res.Violations, Violation{
				Property: "SI", Agent: i, Other: -1, Margin: split/math.Max(own, 1e-300) - 1,
			})
		}
	}
	recordCheck("SI", res.Satisfied)
	return res, nil
}

func refSampledEnvyFreeness(utils []cobb.Utility, x opt.Alloc, tol Tolerance) (Result, error) {
	return refEnvyFreeness(utils, x, tol)
}

func refTangency(utils []cobb.Utility, x opt.Alloc, tol Tolerance) (Result, error) {
	if err := validate(utils, nil, x); err != nil {
		return Result{}, err
	}
	res := Result{Satisfied: true}
	rN := 0
	if len(utils) > 0 {
		rN = utils[0].NumResources()
	}
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

func refWeightedSharingIncentives(utils []cobb.Utility, cap []float64, x opt.Alloc, budgets []float64, tol Tolerance) (Result, error) {
	if budgets == nil {
		return refSharingIncentives(utils, cap, x, tol)
	}
	if err := validate(utils, cap, x); err != nil {
		return Result{}, err
	}
	if len(budgets) != len(utils) {
		return Result{}, fmt.Errorf("%w: %d budgets for %d agents", ErrBadInput, len(budgets), len(utils))
	}
	var bsum float64
	for i, b := range budgets {
		if b <= 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return Result{}, fmt.Errorf("%w: agent %d budget = %v", ErrBadInput, i, b)
		}
		bsum += b
	}
	res := Result{Satisfied: true}
	ent := make([]float64, len(cap))
	for i, u := range utils {
		frac := budgets[i] / bsum
		for r, c := range cap {
			ent[r] = frac * c
		}
		own := u.Eval(x[i])
		baseline := u.Eval(ent)
		if own < baseline*(1-tol.Rel) {
			res.Satisfied = false
			res.Violations = append(res.Violations, Violation{
				Property: "SI", Agent: i, Other: -1, Margin: baseline/math.Max(own, 1e-300) - 1,
			})
		}
	}
	recordCheck("WSI", res.Satisfied)
	return res, nil
}

func refWeightedEnvyFreeness(utils []cobb.Utility, x opt.Alloc, budgets []float64, tol Tolerance) (Result, error) {
	if budgets == nil {
		return refEnvyFreeness(utils, x, tol)
	}
	if err := validate(utils, nil, x); err != nil {
		return Result{}, err
	}
	if len(budgets) != len(utils) {
		return Result{}, fmt.Errorf("%w: %d budgets for %d agents", ErrBadInput, len(budgets), len(utils))
	}
	for i, b := range budgets {
		if b <= 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return Result{}, fmt.Errorf("%w: agent %d budget = %v", ErrBadInput, i, b)
		}
	}
	res := Result{Satisfied: true}
	var scaled []float64
	for i, u := range utils {
		own := u.Eval(x[i])
		for j := range utils {
			if i == j {
				continue
			}
			if scaled == nil {
				scaled = make([]float64, len(x[j]))
			}
			ratio := budgets[i] / budgets[j]
			for r, v := range x[j] {
				scaled[r] = ratio * v
			}
			other := u.Eval(scaled)
			if other > own*(1+tol.Rel) && other > own+1e-300 {
				res.Satisfied = false
				res.Violations = append(res.Violations, Violation{
					Property: "EF", Agent: i, Other: j, Margin: other/math.Max(own, 1e-300) - 1,
				})
			}
		}
	}
	recordCheck("WEF", res.Satisfied)
	return res, nil
}
