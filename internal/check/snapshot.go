package check

// Snapshot-level oracle adapters: the serve layer and the replay harness
// publish allocations as (agent set, capacity, row matrix) triples rather
// than as mechanism invocations, so these helpers re-run the §4 oracles
// against a published snapshot exactly as the property harness runs them
// against a fresh allocation. They exist so an online system's *output*
// can be audited with the same code that audits the mechanism itself —
// no second implementation of the fairness checks to drift.

import (
	"fmt"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/fair"
	"ref/internal/mech"
	"ref/internal/opt"
)

// DefaultSnapshotUlps is the row-level agreement bound between a
// published snapshot and a from-scratch Equation 13 recompute. The
// incremental engine guarantees 1 ulp against its own resummation
// (IncrementalEq13); one more ulp covers the independent summation order
// of the from-scratch reference.
const DefaultSnapshotUlps = 2

// SnapshotOracles is the oracle suite a published allocation snapshot
// must pass: real allocation (feasible and exhaustive), sharing
// incentives, and envy-freeness. Pareto efficiency is deliberately
// excluded — its randomized certificate search is priced for offline
// property trials, not for every epoch of a replay; PE coverage comes
// from the tangency half inside the serve audit and from the Equation 13
// differential (the closed form is PE by Theorem 6).
func SnapshotOracles() []Oracle {
	tol := fair.DefaultTolerance()
	return []Oracle{
		Feasibility(true),
		SIOracle(tol),
		EFOracle(tol),
	}
}

// AuditSnapshot re-audits one published snapshot: the SnapshotOracles
// suite plus the from-scratch Equation 13 differential with maxUlps row
// tolerance (0 selects DefaultSnapshotUlps). Findings are prefixed with
// the oracle name; an empty slice means the snapshot is exactly what the
// mechanism would have published.
func AuditSnapshot(agents []core.Agent, capacity []float64, x opt.Alloc, maxUlps int64) []string {
	// An empty economy is a legitimate snapshot (nothing to allocate, so
	// exhaustion does not apply); only phantom rows are a finding.
	if len(agents) == 0 {
		return SnapshotEq13Differential(agents, capacity, x, maxUlps)
	}
	ec := Economy{Agents: agents, Cap: capacity}
	m := mech.ProportionalElasticity{}
	var out []string
	for _, o := range SnapshotOracles() {
		for _, f := range o.Check(ec, m, x) {
			out = append(out, o.Name+": "+f)
		}
	}
	out = append(out, SnapshotEq13Differential(agents, capacity, x, maxUlps)...)
	return out
}

// AuditWeightedSnapshot is AuditSnapshot's credit-aware counterpart: the
// published allocation is audited against the weighted Equation 13 the
// budgets imply — feasibility, weighted sharing incentives (entitlement
// (b_i/Σb)·C), weighted envy-freeness (bundles compared at budget ratio),
// and the budgeted from-scratch differential. A nil budget vector falls
// back to AuditSnapshot, so callers can pass a snapshot's budgets field
// through unconditionally.
func AuditWeightedSnapshot(agents []core.Agent, capacity []float64, x opt.Alloc, budgets []float64, maxUlps int64) []string {
	if budgets == nil {
		return AuditSnapshot(agents, capacity, x, maxUlps)
	}
	if len(agents) == 0 {
		return eq13Differential(agents, capacity, x, budgets, maxUlps)
	}
	ec := Economy{Agents: agents, Cap: capacity}
	var out []string
	for _, f := range Feasibility(true).Check(ec, mech.ProportionalElasticity{}, x) {
		out = append(out, "feasibility: "+f)
	}
	utils := make([]cobb.Utility, len(agents))
	for i := range agents {
		utils[i] = agents[i].Utility
	}
	tol := fair.DefaultTolerance()
	if res, err := fair.WeightedSharingIncentives(utils, capacity, x, budgets, tol); err != nil {
		out = append(out, "weighted-si: "+err.Error())
	} else {
		for _, v := range res.Violations {
			out = append(out, "weighted-si: "+v.String())
		}
	}
	if res, err := fair.WeightedEnvyFreeness(utils, x, budgets, tol); err != nil {
		out = append(out, "weighted-ef: "+err.Error())
	} else {
		for _, v := range res.Violations {
			out = append(out, "weighted-ef: "+v.String())
		}
	}
	return append(out, eq13Differential(agents, capacity, x, budgets, maxUlps)...)
}

// SnapshotEq13Differential checks a published row matrix against a
// from-scratch core.Allocate over the same agent set: every entry must
// agree within maxUlps (0 selects DefaultSnapshotUlps). This is the
// online counterpart of IncrementalEq13 — it catches incremental-sum
// drift that survived the engine's own resummation discipline.
func SnapshotEq13Differential(agents []core.Agent, capacity []float64, x opt.Alloc, maxUlps int64) []string {
	return eq13Differential(agents, capacity, x, nil, maxUlps)
}

// eq13Differential is the snapshot differential against the weighted
// Equation 13 the budgets imply (core.AllocateBudgeted; nil budgets mean
// unit budgets). Findings are prefixed "eq13-differential" at unit
// budgets and "weighted-eq13-differential" otherwise.
func eq13Differential(agents []core.Agent, capacity []float64, x opt.Alloc, budgets []float64, maxUlps int64) []string {
	name := "eq13-differential"
	if budgets != nil {
		name = "weighted-eq13-differential"
	}
	if maxUlps <= 0 {
		maxUlps = DefaultSnapshotUlps
	}
	if len(agents) == 0 {
		if len(x) != 0 {
			return []string{fmt.Sprintf("%s: %d rows for empty agent set", name, len(x))}
		}
		return nil
	}
	ref, err := core.AllocateBudgeted(agents, budgets, capacity)
	if err != nil {
		return []string{name + ": reference allocation error: " + err.Error()}
	}
	if len(x) != len(agents) {
		return []string{fmt.Sprintf("%s: allocation has %d rows for %d agents", name, len(x), len(agents))}
	}
	var out []string
	for i := range agents {
		if len(x[i]) != len(capacity) {
			out = append(out, fmt.Sprintf("%s: agent %d row has %d resources, want %d",
				name, i, len(x[i]), len(capacity)))
			continue
		}
		for r := range capacity {
			if d := core.UlpDiff(x[i][r], ref.X[i][r]); d > maxUlps {
				out = append(out, fmt.Sprintf(
					"%s: agent %d (%s) resource %d: published %v vs from-scratch %v (%d ulps apart)",
					name, i, agents[i].Name, r, x[i][r], ref.X[i][r], d))
			}
		}
	}
	return out
}
