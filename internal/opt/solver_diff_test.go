package opt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The production solver evaluates value-type constraints from one log
// table and owns all of its scratch; reference_test.go keeps the closure
// solver it replaced. These tests require the two to agree bit for bit.

// String names the constraint, e.g. "SI[0]" or "EF[0,1]".
func (c Constraint) String() string {
	if c.Kind == SharingIncentive {
		return fmt.Sprintf("SI[%d]", c.I)
	}
	return fmt.Sprintf("EF[%d,%d]", c.I, c.J)
}

// Eval returns g(x) and a freshly allocated gradient with respect to the
// allocation entries, from the solvers' kernel.
func (c Constraint) Eval(x Alloc) (float64, Alloc) {
	logx := NewAlloc(len(x), len(c.Alpha))
	fillLog(logx, x)
	grad := NewAlloc(len(x), len(c.Alpha))
	ones := make([]float64, len(c.Alpha))
	for r := range ones {
		ones[r] = 1
	}
	c.addGrad(grad, x, 1, ones)
	return c.value(logx), grad
}

// sameBits reports whether a and b are the same float64 bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameAlloc(t *testing.T, what string, got, want Alloc) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d entries, reference %d", what, i, len(got[i]), len(want[i]))
		}
		for r := range want[i] {
			if !sameBits(got[i][r], want[i][r]) {
				t.Fatalf("%s: [%d][%d] = %v, reference %v", what, i, r, got[i][r], want[i][r])
			}
		}
	}
}

func sameSolve(t *testing.T, what string, got Alloc, gotRep *Report, gotErr error, want Alloc, wantRep *Report, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if (gotRep == nil) != (wantRep == nil) {
		t.Fatalf("%s: report %+v, reference %+v", what, gotRep, wantRep)
	}
	if wantRep != nil && (gotRep.Iters != wantRep.Iters || gotRep.Converged != wantRep.Converged ||
		!sameBits(gotRep.Objective, wantRep.Objective) || !sameBits(gotRep.MaxViolation, wantRep.MaxViolation)) {
		t.Fatalf("%s: report %+v, reference %+v", what, *gotRep, *wantRep)
	}
	sameAlloc(t, what, got, want)
}

// randomEconomy draws n agents over r resources; roughly one elasticity in
// five is zero, and an agent may value nothing at all.
func randomEconomy(rng *rand.Rand, n, r int) ([]Agent, []float64) {
	agents := make([]Agent, n)
	for i := range agents {
		alpha := make([]float64, r)
		for j := range alpha {
			if rng.Intn(5) != 0 {
				alpha[j] = rng.Float64()
			}
		}
		agents[i] = Agent{Alpha: alpha}
	}
	cap := make([]float64, r)
	for j := range cap {
		cap[j] = 0.5 + 30*rng.Float64()
	}
	return agents, cap
}

// solveBoth runs one program on both solvers with the same inputs.
func solveBoth(t *testing.T, what string, agents []Agent, cap []float64, egal, fair bool, weights []float64, cfg Config) {
	t.Helper()
	var cons []Constraint
	var refCons []refConstraint
	if fair {
		cons = append(SIConstraints(agents, cap), EFConstraints(agents)...)
		refCons = append(refSIConstraints(agents, cap), refEFConstraints(agents, len(cap))...)
	}
	if egal {
		offsets := make([]float64, len(agents))
		for i, ag := range agents {
			offsets[i] = ag.logUtil(cap)
		}
		x, rep, err := MaximizeEgalitarian(agents, offsets, cap, cons, cfg)
		rx, rrep, rerr := refMaximizeEgalitarian(agents, offsets, cap, refCons, cfg)
		sameSolve(t, what, x, rep, err, rx, rrep, rerr)
		return
	}
	x, rep, err := MaximizeNashWelfare(agents, weights, cap, cons, cfg)
	rx, rrep, rerr := refMaximizeNashWelfare(agents, weights, cap, refCons, cfg)
	sameSolve(t, what, x, rep, err, rx, rrep, rerr)
}

func TestSolverMatchesReferencePaperExample(t *testing.T) {
	init, err := Proportional([][]float64{{0.6, 0.4}, {0.2, 0.8}}, paperCap)
	if err != nil {
		t.Fatal(err)
	}
	for _, egal := range []bool{false, true} {
		for _, fair := range []bool{false, true} {
			for _, warm := range []bool{false, true} {
				cfg := Config{MaxIters: 3000}
				if warm {
					cfg.Init = init
				}
				what := fmt.Sprintf("egal=%v fair=%v warm=%v", egal, fair, warm)
				solveBoth(t, what, paperAgents, paperCap, egal, fair, nil, cfg)
			}
		}
	}
}

func TestSolverMatchesReferenceRandom(t *testing.T) {
	trials := 320
	if testing.Short() {
		trials = 64
	}
	rng := rand.New(rand.NewSource(7))
	ns := []int{2, 3, 4, 8}
	for k := 0; k < trials; k++ {
		n, r := ns[k%len(ns)], 2+rng.Intn(3)
		agents, cap := randomEconomy(rng, n, r)
		egal, fair := k%2 == 1, (k/2)%2 == 1
		// At the default step most iterates saturate the simplex
		// projection, which hides small gradient differences; short steps
		// keep every gradient bit visible in the shares. A loose tolerance
		// lets infeasible iterates become the returned best, so the result
		// depends on the penalized trajectory, not only on a feasible start.
		cfg := Config{
			MaxIters: 50 + rng.Intn(400),
			Step:     []float64{0, 1e-3, 1e-5}[rng.Intn(3)],
			Tol:      []float64{0, 1e-3, 1e6}[rng.Intn(3)],
		}
		if rng.Intn(2) == 0 {
			// A warm start, feasible or not: rows of positive weights.
			w := make([][]float64, n)
			for i := range w {
				w[i] = make([]float64, r)
				for j := range w[i] {
					w[i][j] = 0.01 + rng.Float64()
				}
			}
			cfg.Init, _ = Proportional(w, cap)
		}
		var weights []float64
		if !egal && rng.Intn(2) == 0 {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = 0.1 + rng.Float64()
			}
		}
		what := fmt.Sprintf("trial %d (n=%d r=%d egal=%v fair=%v warm=%v)", k, n, r, egal, fair, cfg.Init != nil)
		solveBoth(t, what, agents, cap, egal, fair, weights, cfg)
	}
}

// TestSolverMatchesReferenceDefaultConfig runs the fairness-constrained
// programs the mechanisms solve at the full default iteration budget.
func TestSolverMatchesReferenceDefaultConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("full-budget solves take seconds")
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{4, 8} {
		agents, cap := randomEconomy(rng, n, 2)
		w := make([][]float64, n)
		for i, ag := range agents {
			w[i] = append([]float64(nil), ag.Alpha...)
		}
		init, err := Proportional(w, cap)
		if err != nil {
			t.Fatal(err)
		}
		for _, egal := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Init = init
			solveBoth(t, fmt.Sprintf("n=%d egal=%v", n, egal), agents, cap, egal, true, nil, cfg)
		}
	}
}

// TestConstraintEvalMatchesReference compares values and gradients of
// single constraints, including allocations with empty bundles.
func TestConstraintEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 200; k++ {
		n, r := 2+rng.Intn(4), 2+rng.Intn(3)
		agents, cap := randomEconomy(rng, n, r)
		x := NewAlloc(n, r)
		for i := range x {
			for j := range x[i] {
				if rng.Intn(6) != 0 {
					x[i][j] = cap[j] * rng.Float64()
				}
			}
		}
		cons := append(SIConstraints(agents, cap), EFConstraints(agents)...)
		refCons := append(refSIConstraints(agents, cap), refEFConstraints(agents, r)...)
		if len(cons) != len(refCons) {
			t.Fatalf("%d constraints, reference %d", len(cons), len(refCons))
		}
		for c := range cons {
			v, g := cons[c].Eval(x)
			rv, rg := refCons[c].Eval(x)
			if cons[c].String() != refCons[c].Name || !sameBits(v, rv) {
				t.Fatalf("trial %d: %s = %v, reference %s = %v", k, cons[c], v, refCons[c].Name, rv)
			}
			sameAlloc(t, fmt.Sprintf("trial %d %s gradient", k, cons[c]), g, rg)
		}
	}
}

func TestSolverAllocationFree(t *testing.T) {
	agents, cap := randomEconomy(rand.New(rand.NewSource(5)), 4, 2)
	cons := append(SIConstraints(agents, cap), EFConstraints(agents)...)
	short := testing.AllocsPerRun(3, func() { _, _, _ = MaximizeNashWelfare(agents, nil, cap, cons, Config{MaxIters: 100}) })
	long := testing.AllocsPerRun(3, func() { _, _, _ = MaximizeNashWelfare(agents, nil, cap, cons, Config{MaxIters: 2000}) })
	if long != short {
		t.Errorf("allocations grow with iterations: %v at 100, %v at 2000", short, long)
	}
}
