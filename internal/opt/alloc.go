// Package opt provides the numerical optimization substrate that stands in
// for the geometric-programming solver (CVX) used in the REF paper's
// evaluation. The programs the paper solves are all convex after the
// standard log transformation of Cobb-Douglas utilities:
//
//   - Nash welfare:  max Σ_i w_i log u_i(x_i)         (Equation 14)
//   - Egalitarian:   max min_i [log u_i(x_i) − b_i]    (equal slowdown)
//
// subject to per-resource capacity constraints Σ_i x_ir ≤ C_r and optional
// concave fairness constraints (SI, EF). Because every objective here is
// strictly increasing in each x_ir, capacity binds at the optimum, so the
// solvers work in share space: s_ir = x_ir / C_r with each resource's share
// column on the probability simplex. Projected (sub)gradient ascent with a
// diminishing step size and exact penalties for the fairness constraints is
// sufficient and robust at the problem sizes that arise (N ≤ 64, R ≤ 4).
//
// Closed forms exist for the unconstrained Nash program (allocation
// proportional to elasticity) and are exposed in this package both for the
// REF mechanism itself and to cross-validate the iterative solver in tests.
package opt

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadProblem reports malformed solver inputs.
var ErrBadProblem = errors.New("opt: bad problem")

// ErrNoConvergence reports that the iteration budget was exhausted without
// meeting tolerances.
var ErrNoConvergence = errors.New("opt: did not converge")

// Alloc is an N-agent × R-resource allocation matrix: Alloc[i][r] is the
// quantity of resource r held by agent i.
type Alloc [][]float64

// NewAlloc returns a zero allocation for n agents and r resources.
func NewAlloc(n, r int) Alloc {
	a := make(Alloc, n)
	for i := range a {
		a[i] = make([]float64, r)
	}
	return a
}

// Clone returns a deep copy.
func (a Alloc) Clone() Alloc {
	out := make(Alloc, len(a))
	for i, row := range a {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// NumAgents returns the number of agents (rows).
func (a Alloc) NumAgents() int { return len(a) }

// NumResources returns the number of resources (columns), 0 if empty.
func (a Alloc) NumResources() int {
	if len(a) == 0 {
		return 0
	}
	return len(a[0])
}

// ResourceTotals returns Σ_i a[i][r] for each resource r.
func (a Alloc) ResourceTotals() []float64 {
	if len(a) == 0 {
		return nil
	}
	tot := make([]float64, len(a[0]))
	for _, row := range a {
		for r, v := range row {
			tot[r] += v
		}
	}
	return tot
}

// WithinCapacity reports whether resource totals respect cap within a
// relative tolerance.
func (a Alloc) WithinCapacity(cap []float64, relTol float64) bool {
	tot := a.ResourceTotals()
	if len(tot) != len(cap) {
		return false
	}
	for r, t := range tot {
		if t > cap[r]*(1+relTol) {
			return false
		}
	}
	return true
}

// Agent is the solver's view of a Cobb-Douglas agent: just its elasticities.
// The scale constant α₀ never affects any of the programs (it adds a
// constant in log space), so it is omitted.
type Agent struct {
	Alpha []float64
}

// logUtilFrom returns Σ_r α_r log x_r from a row of logs (logx[r] is
// log x_r, or -Inf where x_r ≤ 0; see fillLog), treating zero-elasticity
// resources as absent, and -Inf if any needed resource is zero.
func logUtilFrom(alpha, logx []float64) float64 {
	var s float64
	for r, a := range alpha {
		if a == 0 {
			continue
		}
		if logx[r] == math.Inf(-1) {
			return logx[r]
		}
		s += a * logx[r]
	}
	return s
}

// fillLog writes log x into logx, with -Inf where x ≤ 0.
func fillLog(logx, x Alloc) {
	for i, row := range x {
		for r, v := range row {
			if v <= 0 {
				logx[i][r] = math.Inf(-1)
			} else {
				logx[i][r] = math.Log(v)
			}
		}
	}
}

// Proportional computes the closed-form allocation x_ir = w_ir/Σ_j w_jr · C_r
// (the paper's Equation 13 when w are rescaled elasticities). Resources for
// which every agent's weight is zero are split equally — no agent wants
// them, and leaving them unallocated would waste capacity without changing
// any utility.
func Proportional(weights [][]float64, cap []float64) (Alloc, error) {
	return ProportionalBudgeted(weights, nil, cap)
}

// ProportionalBudgeted computes the budget-weighted Equation 13 allocation
// x_ir = B_i·w_ir/Σ_j B_j·w_jr · C_r — the CEEI allocation when incomes are
// B rather than equal. A nil budgets slice means unit budgets and follows
// the exact arithmetic of the unweighted form, so the two are bit-identical
// there (and multiplying by a budget of exactly 1.0 is itself exact, so the
// identity also holds element-wise for an explicit all-ones vector).
// Resources for which every effective weight is zero are split equally
// regardless of budgets: no agent wants them, and leaving them unallocated
// would waste capacity without changing any utility.
func ProportionalBudgeted(weights [][]float64, budgets []float64, cap []float64) (Alloc, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("%w: no agents", ErrBadProblem)
	}
	r := len(cap)
	for i, w := range weights {
		if len(w) != r {
			return nil, fmt.Errorf("%w: agent %d has %d weights, capacities have %d", ErrBadProblem, i, len(w), r)
		}
		for j, v := range w {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: agent %d weight[%d] = %v", ErrBadProblem, i, j, v)
			}
		}
	}
	if budgets != nil {
		if len(budgets) != n {
			return nil, fmt.Errorf("%w: %d budgets for %d agents", ErrBadProblem, len(budgets), n)
		}
		for i, b := range budgets {
			if b <= 0 || math.IsNaN(b) || math.IsInf(b, 0) {
				return nil, fmt.Errorf("%w: agent %d budget = %v, must be positive and finite", ErrBadProblem, i, b)
			}
		}
	}
	for j, c := range cap {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("%w: capacity[%d] = %v", ErrBadProblem, j, c)
		}
	}
	out := NewAlloc(n, r)
	for j := 0; j < r; j++ {
		// Neumaier-compensated column sum: the weight sum is the only
		// quantity Equation 13 shares across agents, and carrying its
		// rounding error would skew every share. Compensation keeps the
		// sum faithfully rounded at any agent count, which is also what
		// lets the incremental engine (core.IncrementalAllocator) match
		// this full recompute to within 1 ulp.
		var sum, comp float64
		for i := 0; i < n; i++ {
			v := weights[i][j]
			if budgets != nil {
				v = budgets[i] * v
			}
			t := sum + v
			if math.Abs(sum) >= math.Abs(v) {
				comp += (sum - t) + v
			} else {
				comp += (v - t) + sum
			}
			sum = t
		}
		sum += comp
		for i := 0; i < n; i++ {
			v := weights[i][j]
			if budgets != nil {
				v = budgets[i] * v
			}
			if sum > 0 {
				out[i][j] = v / sum * cap[j]
			} else {
				out[i][j] = cap[j] / float64(n)
			}
		}
	}
	return out, nil
}

// EqualSplit returns the allocation giving every agent C_r/N of each
// resource — the outside option that sharing incentives are measured
// against (Equation 3).
func EqualSplit(n int, cap []float64) Alloc {
	a := NewAlloc(n, len(cap))
	for i := 0; i < n; i++ {
		for r, c := range cap {
			a[i][r] = c / float64(n)
		}
	}
	return a
}
