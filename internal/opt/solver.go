package opt

import (
	"fmt"
	"math"
)

// Config tunes the iterative solvers.
type Config struct {
	// MaxIters bounds the projected-gradient iterations.
	MaxIters int
	// Step is the base step size; the effective step decays as Step/√t.
	Step float64
	// Penalty is the weight ρ of the exact penalty ρ·Σ min(0, g_k).
	Penalty float64
	// Floor is the minimum share any agent holds of any resource, keeping
	// log utilities finite. Must be < 1/N.
	Floor float64
	// Tol is the constraint-violation tolerance for declaring convergence.
	Tol float64
	// Init optionally warm-starts the solver from an allocation (it is
	// normalized to shares internally). A feasible warm start — e.g. the
	// REF closed form for SI/EF-constrained programs — makes the exact
	// penalty method robust: the best-iterate tracking then never leaves
	// the feasible region for a worse point.
	Init Alloc
}

// DefaultConfig returns settings adequate for the paper-scale problems
// (N ≤ 64 agents, R ≤ 4 resources).
func DefaultConfig() Config {
	return Config{
		MaxIters: 60000,
		Step:     0.05,
		Penalty:  50,
		Floor:    1e-6,
		Tol:      1e-5,
	}
}

// Report describes a solver run.
type Report struct {
	// Iters is the number of iterations executed.
	Iters int
	// Objective is the objective value at the returned allocation.
	Objective float64
	// MaxViolation is the largest constraint violation max(0, -g_k) at the
	// returned allocation.
	MaxViolation float64
	// Converged is true when MaxViolation ≤ Tol.
	Converged bool
}

func validateProblem(agents []Agent, cap []float64, cfg *Config) error {
	if len(agents) == 0 {
		return fmt.Errorf("%w: no agents", ErrBadProblem)
	}
	r := len(cap)
	if r == 0 {
		return fmt.Errorf("%w: no resources", ErrBadProblem)
	}
	for i, ag := range agents {
		if len(ag.Alpha) != r {
			return fmt.Errorf("%w: agent %d has %d elasticities, capacities have %d", ErrBadProblem, i, len(ag.Alpha), r)
		}
		for j, a := range ag.Alpha {
			if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
				return fmt.Errorf("%w: agent %d alpha[%d] = %v", ErrBadProblem, i, j, a)
			}
		}
	}
	for j, c := range cap {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: capacity[%d] = %v", ErrBadProblem, j, c)
		}
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = DefaultConfig().MaxIters
	}
	if cfg.Step <= 0 {
		cfg.Step = DefaultConfig().Step
	}
	if cfg.Penalty <= 0 {
		cfg.Penalty = DefaultConfig().Penalty
	}
	if cfg.Tol <= 0 {
		cfg.Tol = DefaultConfig().Tol
	}
	maxFloor := 1 / float64(len(agents)) / 4
	if cfg.Floor <= 0 || cfg.Floor >= maxFloor {
		cfg.Floor = math.Min(1e-6, maxFloor/2)
	}
	return nil
}

// penalize adds to grad the gradient (with respect to shares) of the
// exact penalty ρ·Σ min(0, g_k) at the allocation x, whose logs are logx.
// Each violated constraint adds to its own rows only, in constraint order.
// (Adding +0 to the other entries as well could only turn a −0 into +0,
// which the share update s += step·grad cannot see.)
func penalize(x, logx Alloc, cap []float64, cons []Constraint, rho float64, grad Alloc) {
	for _, c := range cons {
		if c.value(logx) >= 0 {
			continue
		}
		// Chain rule x_ir = s_ir · C_r.
		c.addGrad(grad, x, rho, cap)
	}
}

// clampGrad limits the infinity norm of the gradient so that a single agent
// sitting at the share floor (with a 1/s gradient blow-up) cannot destroy
// the step.
func clampGrad(grad Alloc, limit float64) {
	var m float64
	for i := range grad {
		for r := range grad[i] {
			if a := math.Abs(grad[i][r]); a > m {
				m = a
			}
		}
	}
	if m <= limit || m == 0 {
		return
	}
	scale := limit / m
	for i := range grad {
		for r := range grad[i] {
			grad[i][r] *= scale
		}
	}
}

// MaximizeNashWelfare solves
//
//	max Σ_i weights_i · log u_i(x_i)   s.t.   Σ_i x_ir ≤ C_r,  g_k(x) ≥ 0
//
// for Cobb-Douglas agents via projected gradient ascent in share space with
// exact penalties for the extra constraints. With no constraints the result
// matches the closed form Proportional(weights·α) — a property the tests
// exploit. weights may be nil for uniform weights.
func MaximizeNashWelfare(agents []Agent, weights []float64, cap []float64, cons []Constraint, cfg Config) (Alloc, *Report, error) {
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
	objective := func(logx Alloc) float64 {
		var s float64
		for i, ag := range agents {
			s += weights[i] * logUtilFrom(ag.Alpha, logx[i])
		}
		return s
	}
	gradFill := func(_ int, sh, _, grad Alloc) {
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
	return runAscent(agents, cap, cons, cfg, objective, gradFill)
}

// MaximizeEgalitarian solves
//
//	max min_i [ log u_i(x_i) − offsets_i ]   s.t.  Σ_i x_ir ≤ C_r, g_k(x) ≥ 0
//
// the log-space form of maximizing the minimum normalized utility
// U_i = u_i(x_i)/u_i(C) (equal slowdown) when offsets_i = log u_i(C).
// The max-min objective is smoothed with a soft-min whose sharpness β is
// annealed upward across iterations; the smoothed objective stays concave.
func MaximizeEgalitarian(agents []Agent, offsets []float64, cap []float64, cons []Constraint, cfg Config) (Alloc, *Report, error) {
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
	// minVal fills vals with the offset log-utilities and returns their
	// minimum.
	minVal := func(logx Alloc) float64 {
		for i, ag := range agents {
			vals[i] = logUtilFrom(ag.Alpha, logx[i]) - offsets[i]
		}
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m
	}
	gradFill := func(t int, sh, logx, grad Alloc) {
		// Anneal β from soft to sharp across the run.
		frac := float64(t) / float64(cfg.MaxIters)
		beta := 20 * math.Pow(500, frac)
		m := minVal(logx)
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
	}
	return runAscent(agents, cap, cons, cfg, minVal, gradFill)
}

// runAscent is the shared projected-gradient loop. objective evaluates the
// smooth part from an allocation's log table; gradFill writes the smooth
// part's gradient with respect to shares at iteration t. All scratch is
// allocated once, before the first iteration.
func runAscent(agents []Agent, cap []float64, cons []Constraint, cfg Config,
	objective func(logx Alloc) float64, gradFill func(t int, sh, logx, grad Alloc)) (Alloc, *Report, error) {

	n, r := len(agents), len(cap)
	var proj simplexScratch
	shares := NewAlloc(n, r)
	if cfg.Init != nil && len(cfg.Init) == n && len(cfg.Init[0]) == r {
		for i := 0; i < n; i++ {
			for j := 0; j < r; j++ {
				shares[i][j] = cfg.Init[i][j] / cap[j]
			}
		}
		for j := 0; j < r; j++ {
			proj.normalizeColumn(shares, j, cfg.Floor)
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
	// x = s·C is the allocation of the current shares; objectives,
	// constraints and the egalitarian gradient all read its log table.
	x, logx := NewAlloc(n, r), NewAlloc(n, r)
	setX := func(sh Alloc) {
		for i := range sh {
			for j, c := range cap {
				x[i][j] = sh[i][j] * c
			}
		}
		fillLog(logx, x)
	}
	evalAt := func(sh Alloc) (obj, viol float64) {
		setX(sh)
		obj = objective(logx)
		for _, c := range cons {
			if v := c.value(logx); -v > viol {
				viol = -v
			}
		}
		return obj, viol
	}
	// Record the starting point before any step: a feasible warm start
	// (e.g. the REF closed form) guarantees the returned allocation is
	// never worse than it.
	bestObj, bestViol := evalAt(shares)
	iters := 0
	for t := 0; t < cfg.MaxIters; t++ {
		iters = t + 1
		setX(shares)
		gradFill(t, shares, logx, grad)
		// Anneal the penalty weight upward so late iterations prioritize
		// feasibility over objective gain.
		rho := cfg.Penalty * (1 + 9*float64(t)/float64(cfg.MaxIters))
		penalize(x, logx, cap, cons, rho, grad)
		clampGrad(grad, 1e4)
		step := cfg.Step / math.Sqrt(float64(t+1))
		for i := 0; i < n; i++ {
			for j := 0; j < r; j++ {
				shares[i][j] += step * grad[i][j]
			}
		}
		for j := 0; j < r; j++ {
			proj.normalizeColumn(shares, j, cfg.Floor)
		}
		// Periodically consider the iterate for "best so far": feasible
		// iterates ranked by objective; infeasible ones only accepted
		// while nothing feasible has been seen, ranked by violation.
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
	out := x.Clone()
	if !rep.Converged {
		return out, rep, fmt.Errorf("%w: max constraint violation %.3g after %d iterations", ErrNoConvergence, viol, iters)
	}
	return out, rep, nil
}

func copyAlloc(dst, src Alloc) {
	for i := range src {
		copy(dst[i], src[i])
	}
}
