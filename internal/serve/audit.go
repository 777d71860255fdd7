package serve

import (
	"fmt"
	"math"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/fair"
	"ref/internal/obs"
	"ref/internal/par"
)

// auditGroup is one sub-economy of the agent-level fairness audit. The
// paper's guarantees hold within a group: its agents split the group's
// share by the flat Equation 13, so SI/EF/PE apply with that share as
// the capacity vector and the group's population as N. A queue-free
// server is one group over the whole population. A non-trivial queue
// tree has one group per leaf queue; the guarantees *between* queues
// are hier.AuditTree's job (attached by publishBatch as Fairness.Hier),
// since different leaves clear at different prices and envy across
// queues is not an agent-level violation.
type auditGroup struct {
	leafPub
	// queue names the leaf in violation text; it is empty for the flat
	// group, whose violations name no queue (leaf names never are).
	queue string
	// logS and logDen are the sampled SI margin's log-sums log S_r and
	// log-denominator, built on the group's first visit (siLogs).
	logS   []float64
	logDen float64
	// utils, rows and budgets are the members audited pairwise (EF,
	// tangency; all three properties in the exact audit). budgets stays
	// nil while the credit ledger is off: unit budgets.
	utils   []cobb.Utility
	rows    [][]float64
	budgets []float64
}

// auditGroups resolves one audit's agents to their groups.
type auditGroups struct {
	// flat is the whole population on a queue-free server, built from
	// the global sums, capacity, population and published income.
	flat auditGroup
	// pubLeaf and leaves are nil on a queue-free server; on a tree the
	// leaf groups are created on first visit from the published leaves.
	pubLeaf map[string]*leafPub
	leaves  map[string]*auditGroup
	// order lists the leaf groups with members in first-member order.
	order []*auditGroup
}

// auditGroups starts one audit's grouping over the current publication.
// Callers hold stateMu.
func (s *Server) auditGroups(n int, sums []float64) auditGroups {
	gs := auditGroups{flat: auditGroup{leafPub: leafPub{sums: sums, share: s.cfg.Capacity, n: n, bsum: s.pubBudgetSum}}}
	if s.pubLeaf != nil {
		gs.pubLeaf = s.pubLeaf
		gs.leaves = make(map[string]*auditGroup)
	}
	return gs
}

// of returns e's group.
func (gs *auditGroups) of(e *agentEntry) *auditGroup {
	if gs.pubLeaf == nil {
		return &gs.flat
	}
	return gs.leaf(e.queue)
}

// leaf returns leaf queue q's group, creating it on first visit.
func (gs *auditGroups) leaf(q string) *auditGroup {
	g := gs.leaves[q]
	if g == nil {
		g = &auditGroup{leafPub: *gs.pubLeaf[q], queue: q}
		gs.leaves[q] = g
	}
	return g
}

// add appends e to its group's pairwise members: its utility, its
// published row (recomputed from the group's sums, exactly as the
// snapshot's), and its budget under the credit ledger. size is the
// member count being distributed, which sizes the group's slices.
func (gs *auditGroups) add(e *agentEntry, size int, creditOn bool) {
	g := &gs.flat
	if gs.pubLeaf != nil {
		leaf := gs.leaf(e.queue)
		if leaf.utils == nil {
			gs.order = append(gs.order, leaf)
			size = min(size, leaf.n) // a leaf holds at most its population
		}
		g = leaf
	}
	if g.utils == nil {
		g.utils = make([]cobb.Utility, 0, size)
		g.rows = make([][]float64, 0, size)
		if creditOn {
			g.budgets = make([]float64, 0, size)
		}
	}
	g.utils = append(g.utils, e.util)
	g.rows = append(g.rows, core.RowFromSumsBudgeted(nil, e.weight, e.budget, g.sums, g.share, g.n))
	if creditOn {
		g.budgets = append(g.budgets, e.budget)
	}
}

// each visits the groups: the flat group on a queue-free server, else
// the leaves with members in first-member order.
func (gs *auditGroups) each(visit func(g *auditGroup)) {
	if gs.pubLeaf == nil {
		visit(&gs.flat)
		return
	}
	for _, g := range gs.order {
		visit(g)
	}
}

// prefix heads the group's EF/PE/exact-audit violations.
func (g *auditGroup) prefix() string {
	if g.queue == "" {
		return ""
	}
	return "queue " + g.queue + ": "
}

// siLogs builds g's log-sums and SI log-denominator. The denominator is
// log N at unit budgets. Under the credit ledger the baseline is the
// *entitlement* split (b_i/B)·C, and the weighted margin derivation —
// own bundle b_i·α̂_r/S_r·C_r vs entitlement — cancels the agent's own
// budget, leaving siTerm + log B − Σα̂·log S over the effective sums:
// the same O(R) dot product with the total income B in place of the
// population. At unit budgets B is exactly N (a compensated sum of
// ones), so the two coincide bit for bit. The flat group fills the
// server's logScratch; a leaf gets its own slice.
func (s *Server) siLogs(g *auditGroup) {
	var logS []float64
	if g.queue == "" {
		if cap(s.logScratch) < len(g.sums) {
			s.logScratch = make([]float64, len(g.sums))
		}
		logS = s.logScratch[:len(g.sums)]
	} else {
		logS = make([]float64, len(g.sums))
	}
	for r, v := range g.sums {
		if v > 0 {
			logS[r] = math.Log(v)
		} else {
			logS[r] = 0
		}
	}
	g.logS = logS
	g.logDen = math.Log(float64(g.n))
	if s.credit.Enabled() {
		g.logDen = math.Log(g.bsum)
	}
}

// fold ANDs one property audit of a group into f: the verdict into *ok,
// the violations under the group's prefix. An audit that cannot run is
// reported as a violation, never silently dropped.
func (f *Fairness) fold(ok *bool, prefix, property string, res fair.Result, err error) {
	if err != nil {
		*ok = false
		f.Violations = append(f.Violations, fmt.Sprintf("%s%s audit failed: %v", prefix, property, err))
		return
	}
	*ok = *ok && res.Satisfied
	for _, v := range res.Violations {
		f.Violations = append(f.Violations, prefix+v.String())
	}
}

// auditExact runs the full §4 suite over the whole population, group by
// group — the historical behavior, kept for populations up to
// AuditExactBelow where the O(N²) envy audit is affordable every epoch.
// Rows are the published ones (recomputed from the same sums the
// snapshot uses), so the audit covers exactly what clients see. On a
// queue tree each leaf is audited with its share as capacity and the
// violations are prefixed with the queue name. Callers hold stateMu.
func (s *Server) auditExact(n int, sums []float64) *Fairness {
	gs := s.auditGroups(n, sums)
	creditOn := s.credit.Enabled()
	s.table.forEachSorted(func(_ string, e *agentEntry) { gs.add(e, n, creditOn) })
	f := &Fairness{SI: true, EF: true, PE: true}
	gs.each(func(g *auditGroup) {
		res, errs := auditParallel(g.utils, g.share, g.rows, g.budgets, s.cfg.Parallelism)
		prefix := g.prefix()
		f.fold(&f.SI, prefix, "SI", res[0], errs[0])
		f.fold(&f.EF, prefix, "EF", res[1], errs[1])
		f.fold(&f.PE, prefix, "PE", res[2], errs[2])
	})
	return f
}

// auditSampled audits at scale in O(Δ + K) per epoch instead of O(N²):
//
//   - SI is checked from each audited agent's *cached* equal-split
//     margin. In rescaled log space the margin of agent i is
//
//     Σ_r α̂_ir·log α̂_ir  +  log N  −  Σ_r α̂_ir·log S_r
//
//     (own Equation 13 bundle vs the equal split C/N; the capacities
//     cancel). The first term is cached per agent at declaration time
//     (agentEntry.siTerm), so per audited agent the check is an O(R)
//     dot product against the log-sums — no utility evaluation, no
//     exponentials. The margin is compared against the exact audit's
//     relative tolerance mapped into rescaled log space, log1p(−tol)/s_i
//     with s_i the agent's elasticity sum, so the two audits agree on
//     pass/fail. On a queue tree N and S are the agent's leaf's count
//     and aggregate: leaf shares cancel exactly as capacities do.
//
//   - EF and the MRS-tangency half of PE run per group over the audited
//     sample through the same internal/fair code paths as the exact
//     audit (fair.WeightedEnvyFreeness, unit budgets while the credit
//     ledger is off, and fair.Tangency). Capacity exhaustion — the
//     other half of PE — holds analytically for Equation 13 rows
//     (Σ_i α̂_ir/S_r·C_r = C_r), so it is not re-checked numerically.
//
// The audited set is every agent the current batch upserted (their
// margins are the ones that can newly break) plus a rotating window of
// AuditSample agents, so successive epochs sweep the entire population
// every ~N/AuditSample epochs. Callers hold stateMu.
func (s *Server) auditSampled(n int, sums []float64, touched []string) *Fairness {
	tol := fair.DefaultTolerance()
	k := s.cfg.AuditSample
	if k > n {
		k = n
	}
	entries := make([]*agentEntry, 0, k+len(touched))
	for _, name := range touched {
		if e := s.table.get(name); e != nil {
			entries = append(entries, e)
		}
	}
	for i := 0; i < k; i++ {
		entries = append(entries, s.table.entryAt((s.auditCursor+i)%n))
	}
	s.auditCursor = (s.auditCursor + k) % n

	if s.cfg.auditObserver != nil {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.wire.Name
		}
		s.cfg.auditObserver(names)
	}

	f := &Fairness{SI: true, EF: true, PE: true, Sampled: true, SampleSize: len(entries)}
	gs := s.auditGroups(n, sums)

	// The margin distribution and its minimum are fairness telemetry:
	// the histogram shows how much SI headroom the population has, the
	// min (kept on the server and surfaced as a gauge and in flight
	// records) is the agent closest to preferring the equal split.
	marginHist := obs.Installed().Histogram(MetricSIMargin)
	minMargin := math.Inf(1)
	for i, e := range entries {
		g := gs.of(e)
		if g.logS == nil {
			s.siLogs(g)
		}
		margin := e.siTerm + g.logDen
		for r, wr := range e.weight {
			if wr > 0 {
				margin -= wr * g.logS[r]
			}
		}
		marginHist.Observe(margin)
		if margin < minMargin {
			minMargin = margin
		}
		if margin < math.Log1p(-tol.Rel)/e.elastSum {
			where := ""
			if g.queue != "" {
				where = " (queue " + g.queue + ")"
			}
			f.SI = false
			f.Violations = append(f.Violations,
				fmt.Sprintf("SI: sampled agent %d%s prefers the equal split (log margin %g)", i, where, margin))
		}
	}
	if len(entries) > 0 {
		s.lastSIMargin = minMargin
	}

	// EF is O(K²) in its sample, so a huge batch (every touched agent is
	// in `entries`) must not ride into it wholesale: bound the pairwise
	// sample at 2·AuditSample — the first AuditSample touched agents plus
	// the full rotating window. The SI loop above already covered every
	// touched agent; it is O(R) per agent and needs no bound.
	efEntries := entries
	if limit := 2 * k; k > 0 && len(efEntries) > limit {
		efEntries = make([]*agentEntry, 0, limit)
		efEntries = append(efEntries, entries[:limit-k]...)
		efEntries = append(efEntries, entries[len(entries)-k:]...)
	}
	creditOn := s.credit.Enabled()
	for _, e := range efEntries {
		gs.add(e, len(efEntries), creditOn)
	}
	gs.each(func(g *auditGroup) {
		prefix := g.prefix()
		ef, err := fair.WeightedEnvyFreeness(g.utils, g.rows, g.budgets, tol)
		f.fold(&f.EF, prefix, "EF", ef, err)
		tang, err := fair.Tangency(g.utils, g.rows, tol)
		f.fold(&f.PE, prefix, "PE", tang, err)
	})
	return f
}

// auditParallel runs the three §4 property audits of one group as
// independent jobs on the internal/par pool — EF is O(n²) in agents and
// dominates for large tenant counts, so the three properties fan out
// rather than serialize. Non-nil budgets make SI and EF their
// budget-weighted forms (entitlement split and income-scaled envy):
// under the credit ledger the *weighted* properties are the per-epoch
// guarantees; the classic ones are deliberately violated whenever the
// ledger tilts. Pareto efficiency is budget-blind — budgets cancel
// inside each agent's MRS, so the tangency condition is unchanged.
func auditParallel(utils []cobb.Utility, capacity []float64, x [][]float64, budgets []float64, parallelism int) (res [3]fair.Result, errs [3]error) {
	tol := fair.DefaultTolerance()
	_ = par.ForEach(3, parallelism, func(i int) error {
		switch i {
		case 0:
			res[i], errs[i] = fair.WeightedSharingIncentives(utils, capacity, x, budgets, tol)
		case 1:
			res[i], errs[i] = fair.WeightedEnvyFreeness(utils, x, budgets, tol)
		case 2:
			res[i], errs[i] = fair.ParetoEfficiency(utils, capacity, x, tol)
		}
		return nil
	})
	return res, errs
}
