// Package mech implements the four allocation mechanisms the REF paper's
// evaluation compares (§4.5, §5.5), behind a single Mechanism interface:
//
//   - ProportionalElasticity — the paper's contribution (Equation 13);
//     provides SI, EF, PE, and SPL with a closed-form computation.
//   - MaxWelfareFair — maximize Nash social welfare ∏ U_i subject to SI and
//     EF constraints (the geometric-programming mechanism; an empirical
//     upper bound on fair performance).
//   - MaxWelfareUnfair — maximize Nash social welfare subject only to
//     capacity; the empirical upper bound on throughput, with no fairness
//     guarantees.
//   - EqualSlowdown — maximize the minimum normalized utility
//     U_i = u_i(x_i)/u_i(C) subject only to capacity; the conventional
//     equal-slowdown wisdom of prior work [Mutlu & Moscibroda].
//   - EqualSplitMech — the static 1/N partition that SI is measured
//     against.
//
// The package also provides the weighted-system-throughput metric
// (Equation 17) that Figures 13 and 14 report.
package mech

import (
	"errors"
	"fmt"
	"math"
	"time"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/leontief"
	"ref/internal/obs"
	"ref/internal/opt"
)

// ErrMechanism reports a mechanism failure.
var ErrMechanism = errors.New("mech: mechanism failed")

// instrumentAlloc times one mechanism invocation against the installed
// obs registry: defer instrumentAlloc(name)() at the top of Allocate.
// Disabled runs pay one pointer load and no clock read.
func instrumentAlloc(name string) func() {
	r := obs.Installed()
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		r.Counter(fmt.Sprintf("ref_mech_alloc_total{mechanism=%q}", name)).Inc()
		r.Histogram("ref_mech_alloc_seconds").Observe(time.Since(start).Seconds())
	}
}

// Mechanism allocates capacity among Cobb-Douglas agents.
type Mechanism interface {
	// Name identifies the mechanism in reports and benchmark output.
	Name() string
	// Allocate computes the allocation matrix for the agents.
	Allocate(agents []core.Agent, cap []float64) (opt.Alloc, error)
}

// utilsOf extracts the utility slice from agents.
func utilsOf(agents []core.Agent) []cobb.Utility {
	us := make([]cobb.Utility, len(agents))
	for i, a := range agents {
		us[i] = a.Utility
	}
	return us
}

// optAgentsRescaled converts agents to the solver representation using
// rescaled elasticities.
func optAgentsRescaled(agents []core.Agent) []opt.Agent {
	out := make([]opt.Agent, len(agents))
	for i, a := range agents {
		out[i] = opt.Agent{Alpha: a.Utility.Rescaled().Alpha}
	}
	return out
}

// optAgentsRaw converts agents to the solver representation with their raw
// (fitted) elasticities, which is what the normalized utilities U_i are
// defined over.
func optAgentsRaw(agents []core.Agent) []opt.Agent {
	out := make([]opt.Agent, len(agents))
	for i, a := range agents {
		out[i] = opt.Agent{Alpha: append([]float64(nil), a.Utility.Alpha...)}
	}
	return out
}

// normalizationOffsets computes, per agent, the log of its utility at full
// capacity up to the shared α₀ term: Σ_r α_r·log C_r. Subtracting the
// offset turns a log-utility into the normalized log U_i = log u_i(x) −
// log u_i(C) the egalitarian objectives maximize the minimum of.
func normalizationOffsets(raw []opt.Agent, cap []float64) []float64 {
	offsets := make([]float64, len(raw))
	for i := range raw {
		var s float64
		for r, a := range raw[i].Alpha {
			if a > 0 {
				s += a * logOf(cap[r])
			}
		}
		offsets[i] = s
	}
	return offsets
}

// warmStartConfig seeds an iterative solver's initial iterate with the REF
// allocation when the caller supplied none: REF is provably feasible for
// SI ∧ EF, so the penalty method's tracked best starts inside the feasible
// region (and never ends worse than a fair allocation).
func warmStartConfig(cfg opt.Config, agents []core.Agent, cap []float64) opt.Config {
	if cfg.Init == nil {
		if ref, err := core.Allocate(agents, cap); err == nil {
			cfg.Init = ref.X
		}
	}
	return cfg
}

// ProportionalElasticity is the REF mechanism (Equation 13).
type ProportionalElasticity struct{}

// Name implements Mechanism.
func (ProportionalElasticity) Name() string { return "Proportional Elasticity w/ Fairness" }

// Allocate implements Mechanism via the closed form.
func (ProportionalElasticity) Allocate(agents []core.Agent, cap []float64) (opt.Alloc, error) {
	defer instrumentAlloc(ProportionalElasticity{}.Name())()
	a, err := core.Allocate(agents, cap)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMechanism, err)
	}
	return a.X, nil
}

// EqualSplitMech statically divides every resource 1/N.
type EqualSplitMech struct{}

// Name implements Mechanism.
func (EqualSplitMech) Name() string { return "Equal Split" }

// Allocate implements Mechanism.
func (EqualSplitMech) Allocate(agents []core.Agent, cap []float64) (opt.Alloc, error) {
	defer instrumentAlloc(EqualSplitMech{}.Name())()
	if len(agents) == 0 {
		return nil, fmt.Errorf("%w: no agents", ErrMechanism)
	}
	return opt.EqualSplit(len(agents), cap), nil
}

// MaxWelfareUnfair maximizes Nash social welfare ∏_i U_i(x_i) subject only
// to capacity constraints ("Max Welfare w/o Fairness" in Figures 13–14).
//
// Because U_i = u_i(x_i)/u_i(C) differs from u_i by a constant, the argmax
// coincides with maximizing ∏ u_i with the agents' raw elasticities, whose
// closed form allocates each resource in proportion to raw α_ir. The paper
// solves this with geometric programming; the closed form is exact and the
// iterative solver cross-validates it in tests.
type MaxWelfareUnfair struct{}

// Name implements Mechanism.
func (MaxWelfareUnfair) Name() string { return "Max Welfare w/o Fairness" }

// Allocate implements Mechanism.
func (MaxWelfareUnfair) Allocate(agents []core.Agent, cap []float64) (opt.Alloc, error) {
	defer instrumentAlloc(MaxWelfareUnfair{}.Name())()
	if len(agents) == 0 {
		return nil, fmt.Errorf("%w: no agents", ErrMechanism)
	}
	weights := make([][]float64, len(agents))
	for i, a := range agents {
		if err := a.Utility.Validate(); err != nil {
			return nil, fmt.Errorf("%w: agent %d: %v", ErrMechanism, i, err)
		}
		weights[i] = a.Utility.Alpha
	}
	x, err := opt.Proportional(weights, cap)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMechanism, err)
	}
	return x, nil
}

// MaxWelfareFair maximizes Nash social welfare subject to SI and EF
// constraints ("Max Welfare w/ Fairness"). Solved iteratively — this is the
// mechanism whose computational cost the paper contrasts with REF's closed
// form.
type MaxWelfareFair struct {
	// Config tunes the solver; the zero value uses opt.DefaultConfig.
	Config opt.Config
}

// Name implements Mechanism.
func (MaxWelfareFair) Name() string { return "Max Welfare w/ Fairness" }

// Allocate implements Mechanism.
func (m MaxWelfareFair) Allocate(agents []core.Agent, cap []float64) (opt.Alloc, error) {
	defer instrumentAlloc(m.Name())()
	if len(agents) == 0 {
		return nil, fmt.Errorf("%w: no agents", ErrMechanism)
	}
	// SI and EF are invariant under elasticity rescaling (both compare
	// log-utilities of the same agent, and rescaling divides the whole
	// log-utility by a positive constant), so the constraints may be
	// stated over the raw elasticities.
	raw := optAgentsRaw(agents)
	cons := append(opt.SIConstraints(raw, cap), opt.EFConstraints(raw)...)
	cfg := warmStartConfig(m.Config, agents, cap)
	x, _, err := opt.MaximizeNashWelfare(raw, nil, cap, cons, cfg)
	if err != nil {
		return x, fmt.Errorf("%w: %v", ErrMechanism, err)
	}
	return x, nil
}

// EqualSlowdown maximizes min_i U_i(x_i) subject only to capacity — the
// "Equal Slowdown w/o Fairness" mechanism representing prior work's
// max-min/unfairness-index objective. At its optimum all agents experience
// (approximately) the same slowdown.
type EqualSlowdown struct {
	// Config tunes the solver; the zero value uses opt.DefaultConfig.
	Config opt.Config
}

// Name implements Mechanism.
func (EqualSlowdown) Name() string { return "Equal Slowdown w/o Fairness" }

// Allocate implements Mechanism.
func (m EqualSlowdown) Allocate(agents []core.Agent, cap []float64) (opt.Alloc, error) {
	defer instrumentAlloc(m.Name())()
	if len(agents) == 0 {
		return nil, fmt.Errorf("%w: no agents", ErrMechanism)
	}
	raw := optAgentsRaw(agents)
	offsets := normalizationOffsets(raw, cap)
	x, _, err := opt.MaximizeEgalitarian(raw, offsets, cap, nil, m.Config)
	if err != nil {
		return x, fmt.Errorf("%w: %v", ErrMechanism, err)
	}
	return x, nil
}

// EgalitarianFair maximizes egalitarian welfare subject to the fairness
// conditions — §4.5's "Fair Allocation for Egalitarian Welfare":
// max-min U_i subject to SI, EF, and capacity. The paper positions it as an
// empirical *lower* bound on fair performance (it spends throughput on the
// least satisfied user); like MaxWelfareFair it needs the geometric-
// programming-style solver rather than a closed form.
type EgalitarianFair struct {
	// Config tunes the solver; the zero value uses opt.DefaultConfig.
	Config opt.Config
}

// Name implements Mechanism.
func (EgalitarianFair) Name() string { return "Egalitarian Welfare w/ Fairness" }

// Allocate implements Mechanism.
func (m EgalitarianFair) Allocate(agents []core.Agent, cap []float64) (opt.Alloc, error) {
	defer instrumentAlloc(m.Name())()
	if len(agents) == 0 {
		return nil, fmt.Errorf("%w: no agents", ErrMechanism)
	}
	raw := optAgentsRaw(agents)
	offsets := normalizationOffsets(raw, cap)
	cons := append(opt.SIConstraints(raw, cap), opt.EFConstraints(raw)...)
	cfg := warmStartConfig(m.Config, agents, cap)
	x, _, err := opt.MaximizeEgalitarian(raw, offsets, cap, cons, cfg)
	if err != nil {
		return x, fmt.Errorf("%w: %v", ErrMechanism, err)
	}
	return x, nil
}

// DRFFromElasticities runs Dominant Resource Fairness after projecting each
// Cobb-Douglas agent onto a Leontief demand vector d_ir = α̂_ir·C_r. The
// projection interprets "agent i directs a fraction α̂_ir of its demand at
// resource r" — the closest demand-vector reading of an elasticity profile.
// The paper argues this projection loses the substitution information
// (§2); this mechanism exists so that loss can be measured.
func DRFFromElasticities(agents []core.Agent, cap []float64) (opt.Alloc, error) {
	if len(agents) == 0 {
		return nil, fmt.Errorf("%w: no agents", ErrMechanism)
	}
	ls := make([]leontief.Utility, len(agents))
	for i, a := range agents {
		if err := a.Utility.Validate(); err != nil {
			return nil, fmt.Errorf("%w: agent %d: %v", ErrMechanism, i, err)
		}
		if a.Utility.NumResources() != len(cap) {
			return nil, fmt.Errorf("%w: agent %d dimension mismatch", ErrMechanism, i)
		}
		alpha := a.Utility.Rescaled().Alpha
		demand := make([]float64, len(cap))
		for r := range demand {
			d := alpha[r] * cap[r]
			if d <= 0 {
				d = 1e-9 * cap[r] // Leontief demands must be positive
			}
			demand[r] = d
		}
		u, err := leontief.New(demand...)
		if err != nil {
			return nil, fmt.Errorf("%w: agent %d: %v", ErrMechanism, i, err)
		}
		ls[i] = u
	}
	x, err := leontief.DRF(ls, cap)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMechanism, err)
	}
	return opt.Alloc(x), nil
}

func logOf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log(x)
}
