package opt

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperAgents is the §3 running example: u1 = x^0.6 y^0.4, u2 = x^0.2 y^0.8.
var (
	paperAgents = []Agent{{Alpha: []float64{0.6, 0.4}}, {Alpha: []float64{0.2, 0.8}}}
	paperCap    = []float64{24, 12}
)

func TestProjectSimplexBasics(t *testing.T) {
	v := []float64{0.5, 0.5, 0.5}
	if err := ProjectSimplex(v, 0); err != nil {
		t.Fatalf("ProjectSimplex: %v", err)
	}
	for _, x := range v {
		if math.Abs(x-1.0/3) > 1e-12 {
			t.Fatalf("uniform projection = %v", v)
		}
	}
}

func TestProjectSimplexAlreadyOnSimplex(t *testing.T) {
	v := []float64{0.2, 0.3, 0.5}
	want := append([]float64(nil), v...)
	if err := ProjectSimplex(v, 0); err != nil {
		t.Fatalf("ProjectSimplex: %v", err)
	}
	for i := range v {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("projection moved a simplex point: %v", v)
		}
	}
}

func TestProjectSimplexClipsNegative(t *testing.T) {
	v := []float64{2, -1}
	if err := ProjectSimplex(v, 0); err != nil {
		t.Fatalf("ProjectSimplex: %v", err)
	}
	if math.Abs(v[0]-1) > 1e-12 || math.Abs(v[1]) > 1e-12 {
		t.Fatalf("projection = %v, want [1 0]", v)
	}
}

func TestProjectSimplexFloor(t *testing.T) {
	v := []float64{10, 0, 0, 0}
	floor := 0.05
	if err := ProjectSimplex(v, floor); err != nil {
		t.Fatalf("ProjectSimplex: %v", err)
	}
	var sum float64
	for _, x := range v {
		if x < floor-1e-12 {
			t.Fatalf("entry %v below floor %v", x, floor)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestProjectSimplexErrors(t *testing.T) {
	if err := ProjectSimplex(nil, 0); !errors.Is(err, ErrBadProblem) {
		t.Errorf("empty: %v", err)
	}
	if err := ProjectSimplex([]float64{1, 1}, 0.6); !errors.Is(err, ErrBadProblem) {
		t.Errorf("infeasible floor: %v", err)
	}
}

// Property: ProjectSimplex outputs a valid simplex point that is no farther
// from the input than any random simplex point (optimality spot check).
func TestProjectSimplexProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 3
		}
		p := append([]float64(nil), v...)
		if err := ProjectSimplex(p, 0); err != nil {
			return false
		}
		var sum float64
		for _, x := range p {
			if x < -1e-12 {
				return false
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// Compare against a random feasible point.
		q := make([]float64, n)
		var qs float64
		for i := range q {
			q[i] = rng.Float64()
			qs += q[i]
		}
		for i := range q {
			q[i] /= qs
		}
		dist := func(a []float64) float64 {
			var d float64
			for i := range a {
				d += (a[i] - v[i]) * (a[i] - v[i])
			}
			return d
		}
		return dist(p) <= dist(q)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProportionalPaperExample(t *testing.T) {
	// §4.1 worked example: x1 = 18, y1 = 4, x2 = 6, y2 = 8.
	weights := [][]float64{{0.6, 0.4}, {0.2, 0.8}}
	a, err := Proportional(weights, paperCap)
	if err != nil {
		t.Fatalf("Proportional: %v", err)
	}
	want := [][]float64{{18, 4}, {6, 8}}
	for i := range want {
		for r := range want[i] {
			if math.Abs(a[i][r]-want[i][r]) > 1e-9 {
				t.Errorf("alloc[%d][%d] = %v, want %v", i, r, a[i][r], want[i][r])
			}
		}
	}
}

func TestProportionalZeroWeightColumn(t *testing.T) {
	// No agent wants resource 1 → split equally.
	weights := [][]float64{{1, 0}, {1, 0}}
	a, err := Proportional(weights, []float64{10, 6})
	if err != nil {
		t.Fatalf("Proportional: %v", err)
	}
	if a[0][1] != 3 || a[1][1] != 3 {
		t.Errorf("unwanted resource split = %v, %v, want 3, 3", a[0][1], a[1][1])
	}
}

func TestProportionalErrors(t *testing.T) {
	if _, err := Proportional(nil, []float64{1}); !errors.Is(err, ErrBadProblem) {
		t.Error("no agents accepted")
	}
	if _, err := Proportional([][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrBadProblem) {
		t.Error("dimension mismatch accepted")
	}
	if _, err := Proportional([][]float64{{-1, 0}}, []float64{1, 2}); !errors.Is(err, ErrBadProblem) {
		t.Error("negative weight accepted")
	}
	if _, err := Proportional([][]float64{{1, 1}}, []float64{0, 2}); !errors.Is(err, ErrBadProblem) {
		t.Error("zero capacity accepted")
	}
}

func TestEqualSplit(t *testing.T) {
	a := EqualSplit(4, []float64{24, 12})
	for i := 0; i < 4; i++ {
		if a[i][0] != 6 || a[i][1] != 3 {
			t.Fatalf("EqualSplit row %d = %v", i, a[i])
		}
	}
	tot := a.ResourceTotals()
	if math.Abs(tot[0]-24) > 1e-12 || math.Abs(tot[1]-12) > 1e-12 {
		t.Fatalf("totals = %v", tot)
	}
}

func TestAllocHelpers(t *testing.T) {
	a := NewAlloc(2, 3)
	if a.NumAgents() != 2 || a.NumResources() != 3 {
		t.Fatal("shape accessors wrong")
	}
	a[0][0] = 5
	b := a.Clone()
	b[0][0] = 9
	if a[0][0] != 5 {
		t.Fatal("Clone aliases")
	}
	if !a.WithinCapacity([]float64{5, 1, 1}, 0) {
		t.Fatal("WithinCapacity false negative")
	}
	if a.WithinCapacity([]float64{4, 1, 1}, 0) {
		t.Fatal("WithinCapacity false positive")
	}
	var empty Alloc
	if empty.NumResources() != 0 || empty.ResourceTotals() != nil {
		t.Fatal("empty Alloc helpers wrong")
	}
}

// The unconstrained Nash-welfare maximum must match the closed form
// (allocation proportional to elasticity) — the equivalence the paper's
// §4.2 proof rests on.
func TestNashWelfareMatchesClosedForm(t *testing.T) {
	got, rep, err := MaximizeNashWelfare(paperAgents, nil, paperCap, nil, Config{MaxIters: 20000})
	if err != nil {
		t.Fatalf("MaximizeNashWelfare: %v (report %+v)", err, rep)
	}
	want := [][]float64{{18, 4}, {6, 8}}
	for i := range want {
		for r := range want[i] {
			if math.Abs(got[i][r]-want[i][r]) > 0.05 {
				t.Errorf("alloc[%d][%d] = %v, want %v", i, r, got[i][r], want[i][r])
			}
		}
	}
	if !rep.Converged {
		t.Error("not converged")
	}
}

// Property: for random 2–6 agent economies, the solver tracks the closed
// form within a small tolerance.
func TestNashWelfareClosedFormProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("solver property test is slow")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		agents := make([]Agent, n)
		weights := make([][]float64, n)
		for i := range agents {
			a := []float64{0.1 + 0.9*rng.Float64(), 0.1 + 0.9*rng.Float64()}
			s := a[0] + a[1]
			a[0], a[1] = a[0]/s, a[1]/s
			agents[i] = Agent{Alpha: a}
			weights[i] = a
		}
		cap := []float64{5 + rng.Float64()*40, 5 + rng.Float64()*20}
		want, err := Proportional(weights, cap)
		if err != nil {
			return false
		}
		got, _, err := MaximizeNashWelfare(agents, nil, cap, nil, Config{MaxIters: 15000})
		if err != nil {
			return false
		}
		for i := range want {
			for r := range want[i] {
				if math.Abs(got[i][r]-want[i][r]) > 0.02*cap[r] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestNashWelfareRespectsCapacity(t *testing.T) {
	got, _, err := MaximizeNashWelfare(paperAgents, nil, paperCap, nil, Config{MaxIters: 5000})
	if err != nil {
		t.Fatalf("MaximizeNashWelfare: %v", err)
	}
	if !got.WithinCapacity(paperCap, 1e-9) {
		t.Fatalf("capacity violated: totals %v", got.ResourceTotals())
	}
}

func TestNashWelfareWithSIEFConstraints(t *testing.T) {
	// The closed-form REF allocation satisfies SI and EF, so the
	// constrained Nash program must still achieve (at least) the REF
	// objective value and end feasible.
	cons := append(SIConstraints(paperAgents, paperCap), EFConstraints(paperAgents)...)
	got, rep, err := MaximizeNashWelfare(paperAgents, nil, paperCap, cons, Config{MaxIters: 40000})
	if err != nil {
		t.Fatalf("MaximizeNashWelfare: %v (report %+v)", err, rep)
	}
	for _, c := range cons {
		v, _ := c.Eval(got)
		if v < -1e-4 {
			t.Errorf("constraint %s violated: %v", c, v)
		}
	}
	// Compare objective with the REF closed form.
	refAlloc, _ := Proportional([][]float64{{0.6, 0.4}, {0.2, 0.8}}, paperCap)
	var refObj float64
	for i, ag := range paperAgents {
		refObj += ag.logUtil(refAlloc[i])
	}
	if rep.Objective < refObj-1e-2 {
		t.Errorf("constrained objective %v below REF objective %v", rep.Objective, refObj)
	}
}

func TestEgalitarianEqualizesNormalizedUtility(t *testing.T) {
	// Equal slowdown: at the optimum all normalized log-utilities are
	// (approximately) equal — that is the whole point of the mechanism.
	offsets := make([]float64, len(paperAgents))
	for i, ag := range paperAgents {
		offsets[i] = ag.logUtil(paperCap)
	}
	got, rep, err := MaximizeEgalitarian(paperAgents, offsets, paperCap, nil, Config{MaxIters: 40000})
	if err != nil {
		t.Fatalf("MaximizeEgalitarian: %v (report %+v)", err, rep)
	}
	v0 := paperAgents[0].logUtil(got[0]) - offsets[0]
	v1 := paperAgents[1].logUtil(got[1]) - offsets[1]
	if math.Abs(v0-v1) > 0.02 {
		t.Errorf("normalized log-utilities differ: %v vs %v", v0, v1)
	}
	if !got.WithinCapacity(paperCap, 1e-9) {
		t.Errorf("capacity violated: %v", got.ResourceTotals())
	}
}

func TestEgalitarianBeatsEqualSplitMinimum(t *testing.T) {
	// The egalitarian optimum can never be worse for the worst-off agent
	// than the equal split (equal split is feasible).
	agents := []Agent{{Alpha: []float64{0.9, 0.1}}, {Alpha: []float64{0.1, 0.9}}, {Alpha: []float64{0.5, 0.5}}}
	cap := []float64{30, 15}
	offsets := make([]float64, len(agents))
	for i, ag := range agents {
		offsets[i] = ag.logUtil(cap)
	}
	got, rep, err := MaximizeEgalitarian(agents, offsets, cap, nil, Config{MaxIters: 40000})
	if err != nil {
		t.Fatalf("MaximizeEgalitarian: %v", err)
	}
	_ = got
	eq := EqualSplit(len(agents), cap)
	worstEq := math.Inf(1)
	for i, ag := range agents {
		if v := ag.logUtil(eq[i]) - offsets[i]; v < worstEq {
			worstEq = v
		}
	}
	if rep.Objective < worstEq-1e-3 {
		t.Errorf("egalitarian objective %v worse than equal split %v", rep.Objective, worstEq)
	}
}

func TestSolverInputValidation(t *testing.T) {
	if _, _, err := MaximizeNashWelfare(nil, nil, paperCap, nil, Config{}); !errors.Is(err, ErrBadProblem) {
		t.Error("no agents accepted")
	}
	if _, _, err := MaximizeNashWelfare(paperAgents, []float64{1}, paperCap, nil, Config{}); !errors.Is(err, ErrBadProblem) {
		t.Error("weight length mismatch accepted")
	}
	if _, _, err := MaximizeNashWelfare([]Agent{{Alpha: []float64{1}}}, nil, paperCap, nil, Config{}); !errors.Is(err, ErrBadProblem) {
		t.Error("alpha dimension mismatch accepted")
	}
	if _, _, err := MaximizeEgalitarian(paperAgents, []float64{0}, paperCap, nil, Config{}); !errors.Is(err, ErrBadProblem) {
		t.Error("offset length mismatch accepted")
	}
	bad := []Agent{{Alpha: []float64{math.NaN(), 1}}}
	if _, _, err := MaximizeNashWelfare(bad, nil, []float64{1, 1}, nil, Config{}); !errors.Is(err, ErrBadProblem) {
		t.Error("NaN alpha accepted")
	}
	if _, _, err := MaximizeNashWelfare(paperAgents, nil, []float64{-1, 1}, nil, Config{}); !errors.Is(err, ErrBadProblem) {
		t.Error("negative capacity accepted")
	}
}

func TestSIConstraintEvaluation(t *testing.T) {
	cons := SIConstraints(paperAgents, paperCap)
	if len(cons) != 2 {
		t.Fatalf("got %d constraints, want 2", len(cons))
	}
	eq := EqualSplit(2, paperCap)
	for _, c := range cons {
		v, g := c.Eval(eq)
		if math.Abs(v) > 1e-12 {
			t.Errorf("%s at equal split = %v, want 0", c, v)
		}
		if g == nil {
			t.Errorf("%s gradient nil", c)
		}
	}
	// REF allocation strictly satisfies SI for both agents here.
	refAlloc, _ := Proportional([][]float64{{0.6, 0.4}, {0.2, 0.8}}, paperCap)
	for _, c := range cons {
		if v, _ := c.Eval(refAlloc); v < 0 {
			t.Errorf("%s at REF allocation = %v, want ≥ 0", c, v)
		}
	}
}

func TestEFConstraintEvaluation(t *testing.T) {
	cons := EFConstraints(paperAgents)
	if len(cons) != 2 {
		t.Fatalf("got %d constraints, want 2", len(cons))
	}
	// Equal split is always envy-free.
	eq := EqualSplit(2, paperCap)
	for _, c := range cons {
		if v, _ := c.Eval(eq); math.Abs(v) > 1e-12 {
			t.Errorf("%s at equal split = %v, want 0", c, v)
		}
	}
	// An extreme allocation makes agent 1 envy agent 0.
	skew := Alloc{{23, 11}, {1, 1}}
	var envy bool
	for _, c := range cons {
		if v, _ := c.Eval(skew); v < 0 {
			envy = true
		}
	}
	if !envy {
		t.Error("no envy detected for extreme allocation")
	}
}

func TestEFConstraintGradientSigns(t *testing.T) {
	cons := EFConstraints(paperAgents)
	x := Alloc{{12, 6}, {12, 6}}
	v, g := cons[0].Eval(x) // EF[0,1]
	if math.Abs(v) > 1e-12 {
		t.Fatalf("symmetric allocation has EF value %v", v)
	}
	// More of a wanted resource to agent 0 raises g; to agent 1 lowers it.
	if g[0][0] <= 0 || g[1][0] >= 0 {
		t.Errorf("gradient signs wrong: %v", g)
	}
}
