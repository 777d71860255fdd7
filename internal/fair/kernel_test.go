package fair

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ref/internal/cobb"
	"ref/internal/obs"
	"ref/internal/opt"
)

// kernelEconomy draws n agents over r resources. Roughly one elasticity
// in five is zero (agent 0 keeps every elasticity positive, so each
// resource has a claimant), and budgets are nil or random incomes.
func kernelEconomy(rng *rand.Rand, n, r int) ([]cobb.Utility, []float64, []float64) {
	capacity := make([]float64, r)
	for j := range capacity {
		capacity[j] = 1 + rng.Float64()*50
	}
	utils := make([]cobb.Utility, n)
	for i := range utils {
		alpha := make([]float64, r)
		for j := range alpha {
			alpha[j] = rng.Float64() + 1e-3
			if i > 0 && rng.Intn(5) == 0 {
				alpha[j] = 0
			}
		}
		alpha[rng.Intn(r)] += 0.5 // at least one positive elasticity
		utils[i] = cobb.MustNew(0.5+rng.Float64(), alpha...)
	}
	var budgets []float64
	if rng.Intn(2) == 0 {
		budgets = make([]float64, n)
		for i := range budgets {
			budgets[i] = 0.2 + 3*rng.Float64()
		}
	}
	return utils, capacity, budgets
}

// kernelRows builds one of the row shapes the differential covers: the
// (budget-weighted) Equation 13 rows, the equal split, or Equation 13
// rows perturbed to break SI, EF and PE — a bundle moved between two
// agents, capacity left idle, and a zeroed entry.
func kernelRows(rng *rand.Rand, kind int, utils []cobb.Utility, capacity, budgets []float64) opt.Alloc {
	n := len(utils)
	if kind == 1 {
		return opt.EqualSplit(n, capacity)
	}
	weights := make([][]float64, n)
	for i, u := range utils {
		weights[i] = u.Rescaled().Alpha
	}
	x, err := opt.ProportionalBudgeted(weights, budgets, capacity)
	if err != nil {
		panic(err)
	}
	if kind == 2 && n > 1 {
		from, to := rng.Intn(n), rng.Intn(n)
		for from == to {
			to = rng.Intn(n)
		}
		for j := range x[from] {
			x[to][j] += 0.9 * x[from][j]
			x[from][j] *= 0.1
		}
		for j := range x[to] {
			x[to][j] *= 0.5 + rng.Float64()
		}
		x[rng.Intn(n)][rng.Intn(len(capacity))] = 0
	}
	return x
}

// fairLabels are the ref_fair_checks_total series the audits emit.
var fairLabels = func() []string {
	var out []string
	for _, p := range []string{"SI", "EF", "WSI", "WEF", "PE"} {
		for _, r := range []string{"pass", "fail"} {
			out = append(out, fmt.Sprintf("ref_fair_checks_total{property=%q,result=%q}", p, r))
		}
	}
	return out
}()

// counted runs one audit against a fresh registry and returns its
// result together with the ref_fair_checks_total counts it emitted.
func counted(audit func() (Result, error)) (Result, error, []int64) {
	prev := obs.Installed()
	reg := obs.NewRegistry()
	obs.Install(reg)
	defer obs.Install(prev)
	res, err := audit()
	counts := make([]int64, len(fairLabels))
	for i, name := range fairLabels {
		counts[i] = reg.Counter(name).Value()
	}
	return res, err, counts
}

// sameAudit fails unless the kernel's audit matches the reference's:
// the same error, verdict, violations (margins bit for bit) and counter
// labels.
func sameAudit(t *testing.T, what string, kernel, reference func() (Result, error)) {
	t.Helper()
	got, gotErr, gotCounts := counted(kernel)
	want, wantErr, wantCounts := counted(reference)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if got.Satisfied != want.Satisfied || len(got.Violations) != len(want.Violations) {
		t.Fatalf("%s: %+v, reference %+v", what, got, want)
	}
	for k, v := range got.Violations {
		w := want.Violations[k]
		if v.Property != w.Property || v.Agent != w.Agent || v.Other != w.Other ||
			math.Float64bits(v.Margin) != math.Float64bits(w.Margin) {
			t.Fatalf("%s: violation %d is %+v, reference %+v", what, k, v, w)
		}
	}
	for k := range gotCounts {
		if gotCounts[k] != wantCounts[k] {
			t.Fatalf("%s: %s = %d, reference %d", what, fairLabels[k], gotCounts[k], wantCounts[k])
		}
	}
}

// TestKernelsMatchReference pins the SI, EF and tangency kernels to the
// audits they replaced (reference_test.go) on random economies: R ∈ {2,
// 3, 5} with zero elasticities, nil or random budgets, Equation 13,
// equal-split and perturbed rows, and samples audited against the whole
// economy's agent count.
func TestKernelsMatchReference(t *testing.T) {
	tol := DefaultTolerance()
	rng := rand.New(rand.NewSource(13))
	trials := 3000
	if testing.Short() {
		trials = 600
	}
	var siFails, efFails, peFails int
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(10)
		r := []int{2, 3, 5}[trial%3]
		utils, capacity, budgets := kernelEconomy(rng, n, r)
		x := kernelRows(rng, trial%3, utils, capacity, budgets)
		at := fmt.Sprintf("trial %d (n=%d R=%d budgets=%v rows=%d)", trial, n, r, budgets != nil, trial%3)

		sameAudit(t, at+" SharingIncentives",
			func() (Result, error) { return SharingIncentives(utils, capacity, x, tol) },
			func() (Result, error) { return refSharingIncentives(utils, capacity, x, tol) })
		sameAudit(t, at+" WeightedSharingIncentives",
			func() (Result, error) { return WeightedSharingIncentives(utils, capacity, x, budgets, tol) },
			func() (Result, error) { return refWeightedSharingIncentives(utils, capacity, x, budgets, tol) })
		sameAudit(t, at+" EnvyFreeness",
			func() (Result, error) { return EnvyFreeness(utils, x, tol) },
			func() (Result, error) { return refEnvyFreeness(utils, x, tol) })
		sameAudit(t, at+" WeightedEnvyFreeness",
			func() (Result, error) { return WeightedEnvyFreeness(utils, x, budgets, tol) },
			func() (Result, error) { return refWeightedEnvyFreeness(utils, x, budgets, tol) })
		sameAudit(t, at+" ParetoEfficiency",
			func() (Result, error) { return ParetoEfficiency(utils, capacity, x, tol) },
			func() (Result, error) { return refParetoEfficiency(utils, capacity, x, tol) })
		sameAudit(t, at+" Tangency",
			func() (Result, error) { return Tangency(utils, x, tol) },
			func() (Result, error) { return refTangency(utils, x, tol) })

		// A sample of the economy, audited against the full count (and,
		// every other trial, a count larger still).
		perm := rng.Perm(n)[:1+rng.Intn(n)]
		sUtils := make([]cobb.Utility, len(perm))
		sRows := make(opt.Alloc, len(perm))
		for k, i := range perm {
			sUtils[k], sRows[k] = utils[i], x[i]
		}
		totalN := n + trial%2*rng.Intn(5)
		sameAudit(t, at+" SampledSharingIncentives",
			func() (Result, error) { return SampledSharingIncentives(sUtils, capacity, sRows, totalN, tol) },
			func() (Result, error) { return refSampledSharingIncentives(sUtils, capacity, sRows, totalN, tol) })
		sameAudit(t, at+" SampledEnvyFreeness",
			func() (Result, error) { return SampledEnvyFreeness(sUtils, sRows, tol) },
			func() (Result, error) { return refSampledEnvyFreeness(sUtils, sRows, tol) })

		if res, _ := WeightedSharingIncentives(utils, capacity, x, budgets, tol); !res.Satisfied {
			siFails++
		}
		if res, _ := WeightedEnvyFreeness(utils, x, budgets, tol); !res.Satisfied {
			efFails++
		}
		if res, _ := Tangency(utils, x, tol); !res.Satisfied {
			peFails++
		}
	}
	// Non-vacuity: the perturbed rows (a third of the trials) must
	// actually break each property in a good share of them.
	if siFails < trials/6 || efFails < trials/6 || peFails < trials/6 {
		t.Fatalf("violations in %d (SI), %d (EF), %d (PE) of %d trials; the perturbation is too weak",
			siFails, efFails, peFails, trials)
	}
}

// TestKernelsMatchReferenceOnBadInput: the kernels reject malformed
// input with the reference's errors.
func TestKernelsMatchReferenceOnBadInput(t *testing.T) {
	tol := DefaultTolerance()
	x := opt.Alloc{{18, 4}, {6, 8}}
	for _, budgets := range [][]float64{{1}, {1, 0}, {1, math.NaN()}, {math.Inf(1), 1}} {
		sameAudit(t, fmt.Sprintf("WSI budgets %v", budgets),
			func() (Result, error) { return WeightedSharingIncentives(utils, paperCap, x, budgets, tol) },
			func() (Result, error) { return refWeightedSharingIncentives(utils, paperCap, x, budgets, tol) })
		sameAudit(t, fmt.Sprintf("WEF budgets %v", budgets),
			func() (Result, error) { return WeightedEnvyFreeness(utils, x, budgets, tol) },
			func() (Result, error) { return refWeightedEnvyFreeness(utils, x, budgets, tol) })
	}
	sameAudit(t, "sample larger than the economy",
		func() (Result, error) { return SampledSharingIncentives(utils, paperCap, x, 1, tol) },
		func() (Result, error) { return refSampledSharingIncentives(utils, paperCap, x, 1, tol) })
	sameAudit(t, "no agents",
		func() (Result, error) { return Tangency(nil, nil, tol) },
		func() (Result, error) { return refTangency(nil, nil, tol) })
}

// TestMixedWidthRejected: agents with different resource counts (and
// rows to match) are malformed input, not a panic, from every audit
// that takes no capacity vector — whichever agent is wider.
func TestMixedWidthRejected(t *testing.T) {
	narrow, wide := cobb.MustNew(1, 0.6, 0.4), cobb.MustNew(1, 0.2, 0.3, 0.5)
	cases := []struct {
		name  string
		utils []cobb.Utility
		x     opt.Alloc
	}{
		{"narrow first", []cobb.Utility{narrow, wide}, opt.Alloc{{1, 2}, {1, 2, 3}}},
		{"wide first", []cobb.Utility{wide, narrow}, opt.Alloc{{1, 2, 3}, {1, 2}}},
	}
	tol := DefaultTolerance()
	for _, c := range cases {
		audits := map[string]func() (Result, error){
			"EnvyFreeness":         func() (Result, error) { return EnvyFreeness(c.utils, c.x, tol) },
			"SampledEnvyFreeness":  func() (Result, error) { return SampledEnvyFreeness(c.utils, c.x, tol) },
			"WeightedEnvyFreeness": func() (Result, error) { return WeightedEnvyFreeness(c.utils, c.x, []float64{1, 2}, tol) },
			"Tangency":             func() (Result, error) { return Tangency(c.utils, c.x, tol) },
		}
		for name, audit := range audits {
			if _, err := audit(); !errors.Is(err, ErrBadInput) {
				t.Errorf("%s, %s: error %v, want ErrBadInput", c.name, name, err)
			}
		}
	}
}
