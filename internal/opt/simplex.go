package opt

import (
	"fmt"
	"math"
	"slices"
)

// ProjectSimplex projects v onto the simplex {s : s_i ≥ floor, Σ s_i = 1}
// in Euclidean distance, in place, using the sort-based algorithm of
// Duchi et al. (ICML 2008) applied after the change of variables
// t = (s - floor) / (1 - n·floor).
//
// floor must satisfy 0 ≤ floor < 1/len(v). A small positive floor keeps
// every share strictly positive so that log-space objectives stay finite.
func ProjectSimplex(v []float64, floor float64) error {
	var s simplexScratch
	return s.project(v, floor)
}

// simplexScratch holds the projection's working vectors, so a solver can
// project every column of every iterate without allocating.
type simplexScratch struct{ col, w, sorted []float64 }

// project is ProjectSimplex with its buffers taken from s.
func (s *simplexScratch) project(v []float64, floor float64) error {
	n := len(v)
	if n == 0 {
		return fmt.Errorf("%w: empty vector", ErrBadProblem)
	}
	if floor < 0 || floor*float64(n) >= 1 {
		return fmt.Errorf("%w: floor %v infeasible for %d entries", ErrBadProblem, floor, n)
	}
	mass := 1 - floor*float64(n)
	// Shift to the floor-free problem: project w onto {t ≥ 0, Σ t = mass}.
	s.w = slices.Grow(s.w[:0], n)[:n]
	for i, x := range v {
		s.w[i] = x - floor
	}
	s.sorted = append(s.sorted[:0], s.w...)
	slices.Sort(s.sorted)
	var cum, theta float64
	// Walk the entries in descending order (NaNs, which sort first, last).
	for i := range s.sorted {
		u := s.sorted[n-1-i]
		cum += u
		t := (cum - mass) / float64(i+1)
		if u-t > 0 {
			theta = t
		}
	}
	for i := range v {
		t := s.w[i] - theta
		if t < 0 {
			t = 0
		}
		v[i] = t + floor
	}
	return nil
}

// normalizeColumn rescales column r of shares so it sums to one with the
// given floor, falling back to an equal split if the column is degenerate.
func (s *simplexScratch) normalizeColumn(shares Alloc, r int, floor float64) {
	n := len(shares)
	s.col = slices.Grow(s.col[:0], n)[:n]
	col := s.col
	for i := range shares {
		col[i] = shares[i][r]
	}
	if err := s.project(col, floor); err != nil || slices.ContainsFunc(col, math.IsNaN) {
		for i := range col {
			col[i] = 1 / float64(n)
		}
	}
	for i := range shares {
		shares[i][r] = col[i]
	}
}
