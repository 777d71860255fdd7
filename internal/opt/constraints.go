package opt

import (
	"fmt"
	"math"
)

// safePos guards a denominator that should be strictly positive but may be
// zero when a caller evaluates a constraint at an extreme allocation.
func safePos(x float64) float64 {
	if x < 1e-300 {
		return 1e-300
	}
	return x
}

// SIConstraints builds one sharing-incentive constraint per agent
// (Equation 3 in log space):
//
//	g_i(x) = log u_i(x_i) − log u_i(C/N) ≥ 0
//
// Each g_i is linear in log x and therefore concave in x.
func SIConstraints(agents []Agent, cap []float64) []Constraint {
	n := len(agents)
	cons := make([]Constraint, 0, n)
	for i := range agents {
		i := i
		// Precompute the equal-split utility offset.
		equal := make([]float64, len(cap))
		for r, c := range cap {
			equal[r] = c / float64(n)
		}
		offset := agents[i].logUtil(equal)
		// Only row i of the gradient is ever written, so the buffer
		// needs no re-zeroing between calls.
		var grad Alloc
		cons = append(cons, Constraint{
			Name: fmt.Sprintf("SI[%d]", i),
			Eval: func(x Alloc) (float64, Alloc) {
				val := agents[i].logUtil(x[i]) - offset
				if grad == nil {
					grad = NewAlloc(len(x), len(cap))
				}
				for r, a := range agents[i].Alpha {
					if a == 0 {
						continue
					}
					grad[i][r] = a / safePos(x[i][r])
				}
				return val, grad
			},
		})
	}
	return cons
}

// EFConstraints builds one envy-freeness constraint per ordered pair of
// distinct agents (§3.2 in log space):
//
//	g_{ij}(x) = log u_i(x_i) − log u_i(x_j) ≥ 0
//
// i.e. agent i evaluates agent j's bundle with i's own utility and must not
// prefer it.
func EFConstraints(agents []Agent, numResources int) []Constraint {
	n := len(agents)
	cons := make([]Constraint, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			i, j := i, j
			// Only rows i and j are ever written; see SIConstraints.
			var grad Alloc
			cons = append(cons, Constraint{
				Name: fmt.Sprintf("EF[%d,%d]", i, j),
				Eval: func(x Alloc) (float64, Alloc) {
					val := agents[i].logUtil(x[i]) - agents[i].logUtil(x[j])
					if grad == nil {
						grad = NewAlloc(len(x), numResources)
					}
					for r, a := range agents[i].Alpha {
						if a == 0 {
							continue
						}
						grad[i][r] = a / safePos(x[i][r])
						grad[j][r] = -a / safePos(x[j][r])
					}
					// A -Inf − -Inf comparison (both bundles worthless to
					// agent i) is vacuously non-envious.
					if math.IsNaN(val) {
						val = 0
					}
					return val, grad
				},
			})
		}
	}
	return cons
}
