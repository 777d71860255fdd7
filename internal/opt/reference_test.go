package opt

import (
	"fmt"
	"math"
	"sort"
)

// This file keeps the closure-based solver the package used before
// constraints became values evaluated from one log table. It is the
// reference the differential tests in solver_diff_test.go compare the
// production solver against, bit for bit. Do not optimise it.

// logUtil is the direct form of logUtilFrom, taking logs as it goes.
func (ag Agent) logUtil(x []float64) float64 {
	var s float64
	for r, a := range ag.Alpha {
		if a == 0 {
			continue
		}
		if x[r] <= 0 {
			return math.Inf(-1)
		}
		s += a * math.Log(x[r])
	}
	return s
}

// refConstraint is the old closure constraint: Eval returns the value and
// a gradient buffer the closure reuses.
type refConstraint struct {
	Name string
	Eval func(x Alloc) (val float64, grad Alloc)
}

func refSIConstraints(agents []Agent, cap []float64) []refConstraint {
	n := len(agents)
	cons := make([]refConstraint, 0, n)
	for i := range agents {
		i := i
		equal := make([]float64, len(cap))
		for r, c := range cap {
			equal[r] = c / float64(n)
		}
		offset := agents[i].logUtil(equal)
		var grad Alloc
		cons = append(cons, refConstraint{
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

func refEFConstraints(agents []Agent, numResources int) []refConstraint {
	n := len(agents)
	cons := make([]refConstraint, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			i, j := i, j
			var grad Alloc
			cons = append(cons, refConstraint{
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

func refProjectSimplex(v []float64, floor float64) error {
	n := len(v)
	if n == 0 {
		return fmt.Errorf("%w: empty vector", ErrBadProblem)
	}
	if floor < 0 || floor*float64(n) >= 1 {
		return fmt.Errorf("%w: floor %v infeasible for %d entries", ErrBadProblem, floor, n)
	}
	mass := 1 - floor*float64(n)
	w := make([]float64, n)
	for i, x := range v {
		w[i] = x - floor
	}
	sorted := append([]float64(nil), w...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var cum, theta float64
	for i, u := range sorted {
		cum += u
		t := (cum - mass) / float64(i+1)
		if u-t > 0 {
			theta = t
		}
	}
	for i := range v {
		t := w[i] - theta
		if t < 0 {
			t = 0
		}
		v[i] = t + floor
	}
	return nil
}

func refNormalizeColumn(shares Alloc, r int, floor float64) {
	n := len(shares)
	col := make([]float64, n)
	for i := range shares {
		col[i] = shares[i][r]
	}
	if err := refProjectSimplex(col, floor); err != nil {
		for i := range col {
			col[i] = 1 / float64(n)
		}
	}
	ok := true
	for _, v := range col {
		if math.IsNaN(v) {
			ok = false
			break
		}
	}
	if !ok {
		for i := range col {
			col[i] = 1 / float64(n)
		}
	}
	for i := range shares {
		shares[i][r] = col[i]
	}
}

func refSharesToAlloc(s Alloc, cap []float64) Alloc {
	x := NewAlloc(len(s), len(cap))
	for i := range s {
		for r := range cap {
			x[i][r] = s[i][r] * cap[r]
		}
	}
	return x
}

func refPenaltyTerm(x Alloc, cap []float64, cons []refConstraint, rho float64, grad Alloc) {
	for _, c := range cons {
		v, g := c.Eval(x)
		if v >= 0 {
			continue
		}
		if g == nil {
			continue
		}
		for i := range grad {
			for r := range grad[i] {
				grad[i][r] += rho * g[i][r] * cap[r]
			}
		}
	}
}

func refMaximizeNashWelfare(agents []Agent, weights []float64, cap []float64, cons []refConstraint, cfg Config) (Alloc, *Report, error) {
	if err := validateProblem(agents, cap, &cfg); err != nil {
		return nil, nil, err
	}
	n, r := len(agents), len(cap)
	if weights == nil {
		weights = make([]float64, n)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != n {
		return nil, nil, fmt.Errorf("%w: %d weights for %d agents", ErrBadProblem, len(weights), n)
	}
	objective := func(x Alloc) float64 {
		var s float64
		for i, ag := range agents {
			s += weights[i] * ag.logUtil(x[i])
		}
		return s
	}
	gradFill := func(sh Alloc, grad Alloc) {
		for i, ag := range agents {
			for j := 0; j < r; j++ {
				if ag.Alpha[j] == 0 {
					grad[i][j] = 0
					continue
				}
				grad[i][j] = weights[i] * ag.Alpha[j] / sh[i][j]
			}
		}
	}
	return refRunAscent(agents, cap, cons, cfg, objective, gradFill)
}

func refMaximizeEgalitarian(agents []Agent, offsets []float64, cap []float64, cons []refConstraint, cfg Config) (Alloc, *Report, error) {
	if err := validateProblem(agents, cap, &cfg); err != nil {
		return nil, nil, err
	}
	n, r := len(agents), len(cap)
	if offsets == nil {
		offsets = make([]float64, n)
	}
	if len(offsets) != n {
		return nil, nil, fmt.Errorf("%w: %d offsets for %d agents", ErrBadProblem, len(offsets), n)
	}
	vals := make([]float64, n)
	softW := make([]float64, n)
	fill := func(x Alloc) {
		for i, ag := range agents {
			vals[i] = ag.logUtil(x[i]) - offsets[i]
		}
	}
	objective := func(x Alloc) float64 {
		fill(x)
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m
	}
	iter := 0
	gradFill := func(sh Alloc, grad Alloc) {
		frac := float64(iter) / float64(cfg.MaxIters)
		beta := 20 * math.Pow(500, frac)
		x := refSharesToAlloc(sh, cap)
		fill(x)
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		var z float64
		for i, v := range vals {
			softW[i] = math.Exp(-beta * (v - m))
			z += softW[i]
		}
		for i, ag := range agents {
			w := softW[i] / z
			for j := 0; j < r; j++ {
				if ag.Alpha[j] == 0 {
					grad[i][j] = 0
					continue
				}
				grad[i][j] = w * ag.Alpha[j] / sh[i][j]
			}
		}
		iter++
	}
	return refRunAscent(agents, cap, cons, cfg, objective, gradFill)
}

func refRunAscent(agents []Agent, cap []float64, cons []refConstraint, cfg Config,
	objective func(Alloc) float64, gradFill func(sh, grad Alloc)) (Alloc, *Report, error) {

	n, r := len(agents), len(cap)
	shares := NewAlloc(n, r)
	if cfg.Init != nil && len(cfg.Init) == n && len(cfg.Init[0]) == r {
		for i := 0; i < n; i++ {
			for j := 0; j < r; j++ {
				shares[i][j] = cfg.Init[i][j] / cap[j]
			}
		}
		for j := 0; j < r; j++ {
			refNormalizeColumn(shares, j, cfg.Floor)
		}
	} else {
		for i := 0; i < n; i++ {
			for j := 0; j < r; j++ {
				shares[i][j] = 1 / float64(n)
			}
		}
	}
	grad := NewAlloc(n, r)
	best := shares.Clone()
	evalAt := func(sh Alloc) (obj, viol float64) {
		x := refSharesToAlloc(sh, cap)
		obj = objective(x)
		for _, c := range cons {
			v, _ := c.Eval(x)
			if -v > viol {
				viol = -v
			}
		}
		return obj, viol
	}
	bestObj, bestViol := evalAt(shares)
	copyAlloc(best, shares)
	iters := 0
	for t := 0; t < cfg.MaxIters; t++ {
		iters = t + 1
		gradFill(shares, grad)
		x := refSharesToAlloc(shares, cap)
		rho := cfg.Penalty * (1 + 9*float64(t)/float64(cfg.MaxIters))
		refPenaltyTerm(x, cap, cons, rho, grad)
		clampGrad(grad, 1e4)
		step := cfg.Step / math.Sqrt(float64(t+1))
		for i := 0; i < n; i++ {
			for j := 0; j < r; j++ {
				shares[i][j] += step * grad[i][j]
			}
		}
		for j := 0; j < r; j++ {
			refNormalizeColumn(shares, j, cfg.Floor)
		}
		if t%25 == 0 || t == cfg.MaxIters-1 {
			obj, viol := evalAt(shares)
			if viol <= cfg.Tol {
				if bestViol > cfg.Tol || obj > bestObj {
					copyAlloc(best, shares)
					bestObj, bestViol = obj, viol
				}
			} else if bestViol > cfg.Tol && viol < bestViol {
				copyAlloc(best, shares)
				bestObj, bestViol = obj, viol
			}
		}
	}
	obj, viol := evalAt(best)
	rep := &Report{Iters: iters, Objective: obj, MaxViolation: viol, Converged: viol <= cfg.Tol}
	out := refSharesToAlloc(best, cap)
	if !rep.Converged {
		return out, rep, fmt.Errorf("%w: max constraint violation %.3g after %d iterations", ErrNoConvergence, viol, iters)
	}
	return out, rep, nil
}
