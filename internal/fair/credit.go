package fair

import (
	"fmt"
	"math"
	"sort"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/opt"
)

// This file audits the weighted (credit-budgeted) mechanism. One epoch of
// the weighted Equation 13 is the CEEI with incomes B rather than equal
// incomes, so the instantaneous guarantees shift baseline: agent i is
// entitled to the fraction b_i/Σ_j b_j of every resource, and envy is only
// meaningful after scaling the other agent's bundle by the budget ratio.
// The long-run guarantees — the reason to run credits at all — are audited
// by LongRunAuditor over a whole multi-round history.

// WeightedSharingIncentives audits the budget-weighted sharing incentive:
// every agent weakly prefers its bundle to its entitlement share
// (b_i/Σ_j b_j)·C. A nil budgets slice means unit budgets, which reduces to
// the classic equal-split SI.
func WeightedSharingIncentives(utils []cobb.Utility, cap []float64, x opt.Alloc, budgets []float64, tol Tolerance) (Result, error) {
	return sharingIncentives(utils, cap, x, budgets, len(utils), tol)
}

// WeightedEnvyFreeness audits budget-adjusted envy: agent i envies agent j
// only if it prefers j's bundle scaled by the income ratio b_i/b_j to its
// own. At unit budgets (nil) this is classic envy-freeness. (Without the
// scaling, a tenant the ledger has tilted down would trivially "envy" a
// credited one — that tilt is the mechanism's point, not a violation.)
func WeightedEnvyFreeness(utils []cobb.Utility, x opt.Alloc, budgets []float64, tol Tolerance) (Result, error) {
	return envyFreeness(utils, x, budgets, tol)
}

// LongRunConfig tunes the multi-round credit-fairness oracles. Zero fields
// select defaults.
type LongRunConfig struct {
	// Params must be the same (defaulted) credit parameters the audited
	// system runs with; the oracles derive their floors and time scales
	// from them.
	Params core.CreditParams
	// Tol is the relative slack on every long-run comparison (default
	// 0.05 — decayed averages lag the ledger's convergence by design).
	Tol float64
	// WarmupHalfLives is the tenure, in half-lives, an agent must have
	// before the average-based oracles bind (default 2).
	WarmupHalfLives float64
	// StarveHalfLives is the K in the starvation bound: no
	// persistent-demand tenant may stay below its entitlement floor for
	// more than K half-lives (default 3).
	StarveHalfLives float64
	// OverUseSlack is the relative margin by which decayed usage must
	// exceed the decayed fair share before an agent counts as having
	// over-consumed (default 0.01).
	OverUseSlack float64
}

func (c LongRunConfig) withDefaults() LongRunConfig {
	c.Params = c.Params.WithDefaults()
	if c.Tol == 0 {
		c.Tol = 0.05
	}
	if c.WarmupHalfLives == 0 {
		c.WarmupHalfLives = 2
	}
	if c.StarveHalfLives == 0 {
		c.StarveHalfLives = 3
	}
	if c.OverUseSlack == 0 {
		c.OverUseSlack = 0.01
	}
	return c
}

// LongRunAuditor accumulates a multi-round allocation history and audits
// the credit mechanism's long-run guarantees:
//
//   - long-run SI: an agent that never over-consumed (its decayed usage
//     never ran ahead of its decayed fair share) has a decayed-average
//     rescaled utility at least the decayed-average equal-split utility.
//     Over-consumers are exempt — their compensating dip below equal split
//     is the ledger collecting a debt that financed an earlier feast.
//   - entitlement SI: every agent's decayed-average utility is at least
//     the decayed average of its per-round weighted entitlement
//     û((b/B)·C), the baseline the weighted CEEI guarantees each round.
//   - starvation bound: no agent's rescaled utility stays below the
//     bounded-tilt floor ρ·û(C/N), ρ = MinBudget/MaxBudget, for longer
//     than K half-lives. The clamp guarantees the floor instantaneously,
//     so any sustained dip means the ledger or the weighted engine is
//     mis-tilting.
//
// The auditor maintains its own shadow ledger from the observed rows, so
// it audits any snapshot stream — the live server, the replay harness, or
// the property-check simulator — without trusting the system's ledger.
type LongRunAuditor struct {
	cfg    LongRunConfig
	agents map[string]*lrAgent
}

type lrAgent struct {
	rescaled cobb.Utility
	acc      core.CreditAccount

	// Decayed time-weighted averages: each num is Σ v·dt with decay, den
	// is Σ dt with decay (shared by all three numerators).
	den     float64
	utilNum float64 // û(x)
	eqNum   float64 // û(C/N)
	entNum  float64 // û((b/B)·C)

	tenure      float64 // undecayed seconds observed
	everOver    bool
	starveRun   float64
	worstStarve float64
}

// NewLongRunAuditor builds an auditor; cfg.Params should carry the same
// half-life and budget bounds as the system under audit.
func NewLongRunAuditor(cfg LongRunConfig) *LongRunAuditor {
	return &LongRunAuditor{cfg: cfg.withDefaults(), agents: make(map[string]*lrAgent)}
}

// Observe folds one round into the history: the live agents (parallel
// slices), their budgets this round (nil for unit), the allocation, the
// capacity vector, and the time elapsed since the previous round. Agents
// absent from a round simply do not accrue; an agent that leaves and later
// rejoins under the same name continues its history, matching a ledger
// that persists across reconnects in the auditor's shadow (systems that
// forget ledgers on leave still satisfy the oracles — forgetting is in the
// tenant's favor on the debt side and the floor does not depend on it).
func (a *LongRunAuditor) Observe(names []string, utils []cobb.Utility, budgets []float64, x opt.Alloc, cap []float64, dtSeconds float64) error {
	if len(names) != len(utils) || len(x) != len(utils) {
		return fmt.Errorf("%w: %d names, %d utilities, %d rows", ErrBadInput, len(names), len(utils), len(x))
	}
	if budgets != nil && len(budgets) != len(utils) {
		return fmt.Errorf("%w: %d budgets for %d agents", ErrBadInput, len(budgets), len(utils))
	}
	if dtSeconds <= 0 || len(names) == 0 {
		return nil
	}
	n := float64(len(names))
	decay := a.cfg.Params.Decay(dtSeconds)
	equal := make([]float64, len(cap))
	for r, c := range cap {
		equal[r] = c / n
	}
	var bsum float64
	if budgets != nil {
		for _, b := range budgets {
			bsum += b
		}
	} else {
		bsum = n
	}
	ent := make([]float64, len(cap))
	for i, name := range names {
		st := a.agents[name]
		if st == nil {
			st = &lrAgent{}
			a.agents[name] = st
		}
		// Refresh the utility every round: a tenant that re-declares its
		// elasticities is scored under the preference in force when each
		// round was allocated. The per-round weighted SI guarantee holds
		// against the current utility, so it transfers to the decayed
		// averages; a frozen first-seen utility would mis-score every
		// round after an honest re-declaration.
		st.rescaled = utils[i].Rescaled()
		b := 1.0
		if budgets != nil {
			b = budgets[i]
		}
		st.acc.Accrue(decay, core.ShareRate(x[i], cap)*dtSeconds, dtSeconds/n)
		if st.acc.Usage > st.acc.Fair*(1+a.cfg.OverUseSlack)+1e-12 {
			st.everOver = true
		}
		frac := b / bsum
		for r, c := range cap {
			ent[r] = frac * c
		}
		own := st.rescaled.Eval(x[i])
		eq := st.rescaled.Eval(equal)
		st.den = st.den*decay + dtSeconds
		st.utilNum = st.utilNum*decay + own*dtSeconds
		st.eqNum = st.eqNum*decay + eq*dtSeconds
		st.entNum = st.entNum*decay + st.rescaled.Eval(ent)*dtSeconds
		st.tenure += dtSeconds
		floor := a.floorRatio() * eq
		if own < floor*(1-a.cfg.Tol) {
			st.starveRun += dtSeconds
			if st.starveRun > st.worstStarve {
				st.worstStarve = st.starveRun
			}
		} else {
			st.starveRun = 0
		}
	}
	return nil
}

// floorRatio is ρ = MinBudget/MaxBudget: with budgets clamped to
// [MinBudget, MaxBudget], agent i's entitlement fraction b_i/Σb is at
// least MinBudget/(MaxBudget·N), so û(x) ≥ ρ·û(C/N) every round.
func (a *LongRunAuditor) floorRatio() float64 {
	if !a.cfg.Params.Enabled() {
		return 1
	}
	return a.cfg.Params.MinBudget / a.cfg.Params.MaxBudget
}

// Findings audits the accumulated history and returns one human-readable
// finding per violated oracle instance, sorted by agent name (empty when
// every oracle holds).
func (a *LongRunAuditor) Findings() []string {
	names := make([]string, 0, len(a.agents))
	for n := range a.agents {
		names = append(names, n)
	}
	sort.Strings(names)
	warmup := a.cfg.WarmupHalfLives * a.cfg.Params.HalfLifeSeconds
	starveMax := a.cfg.StarveHalfLives * a.cfg.Params.HalfLifeSeconds
	var out []string
	for _, name := range names {
		st := a.agents[name]
		if st.den <= 0 {
			continue
		}
		avgUtil := st.utilNum / st.den
		avgEq := st.eqNum / st.den
		avgEnt := st.entNum / st.den
		if st.tenure >= warmup && !st.everOver && avgUtil < avgEq*(1-a.cfg.Tol) {
			out = append(out, fmt.Sprintf(
				"long-run-si: agent %s never over-consumed but decayed-average utility %.6g < equal-split %.6g (ratio %.4f)",
				name, avgUtil, avgEq, avgUtil/math.Max(avgEq, 1e-300)))
		}
		if st.tenure >= warmup && avgUtil < avgEnt*(1-a.cfg.Tol) {
			out = append(out, fmt.Sprintf(
				"entitlement-si: agent %s decayed-average utility %.6g < decayed-average entitlement %.6g",
				name, avgUtil, avgEnt))
		}
		if a.cfg.Params.Enabled() && st.worstStarve > starveMax {
			out = append(out, fmt.Sprintf(
				"starvation-bound: agent %s stayed below the ρ=%.3g entitlement floor for %.3gs > %.3g half-lives",
				name, a.floorRatio(), st.worstStarve, a.cfg.StarveHalfLives))
		}
	}
	return out
}

// AgentCount reports how many distinct agents the auditor has observed
// (test hook).
func (a *LongRunAuditor) AgentCount() int { return len(a.agents) }
