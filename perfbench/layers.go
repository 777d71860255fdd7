package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/fair"
	"ref/internal/hier"
	"ref/internal/serve"
)

// probeServeLayers is serve-flat's per-layer half of a traced run. It
// reads the stage durations the server's flight recorder kept for the
// timed phase, then re-drives the layers below serve on the workload's own
// inputs: point and delta reads (also through the HTTP handler), the
// sampled audit at the server's window size, the incremental Equation 13
// engine replaying the timed phase's mutations, the weighted audit, a
// credit ledger settle over every live tenant, and a queue tree holding
// the ramp population.
func probeServeLayers(rc runConfig, srv *serve.Server, ramp [][]float64,
	recs []opRecord, epoch0 uint64, o *outcome) error {
	tr := rc.tr
	rng := rand.New(rand.NewSource(rc.seed + 1))
	root := tr.begin("layers", 0, 0)
	defer tr.end(root, 1)
	flightStages(srv, epoch0, o)

	// The live population, read back through the point-read path.
	names := liveNames(recs, len(ramp))
	o.values["serve.point_read_us"] = perCallMedian(tr, "serve.Server.AgentRow", root.ID(), 2000, func(i int) {
		srv.AgentRow(names[rng.Intn(len(names))])
	})
	cur := srv.Current().Epoch
	o.values["serve.delta_read_us"] = perCallMedian(tr, "serve.Server.DeltaSince", root.ID(), 200, func(int) {
		srv.DeltaSince(cur - min(cur, 8))
	})
	probeHTTPLayers(tr, root.ID(), srv, names, rng, o)

	const sample = 256 // the server's default AuditSample
	utils := make([]cobb.Utility, sample)
	rows := make([][]float64, sample)
	budgets := make([]float64, sample)
	for i := range utils {
		row := srv.AgentRow(names[rng.Intn(len(names))])
		u, err := cobb.New(row.Agent.Alpha0, row.Agent.Elasticities...)
		if err != nil {
			return err
		}
		utils[i], rows[i], budgets[i] = u, row.Allocation, 1 // credits are off

	}
	tol := fair.DefaultTolerance()
	n := srv.Current().NumAgents()
	var si, ef fair.Result
	var err error
	o.values["fair.sampled_audit_ms"] = repeatMedian(tr, "fair.Sampled{SharingIncentives,EnvyFreeness}", root.ID(), 5, func() {
		if si, err = fair.SampledSharingIncentives(utils, serveCapacity, rows, n, tol); err == nil {
			ef, err = fair.SampledEnvyFreeness(utils, rows, tol)
		}
	}) / 1e3
	if err != nil {
		return err
	}
	o.check(si.Satisfied && ef.Satisfied, "sampled audit of %d served rows: SI=%v EF=%v", sample, si.Satisfied, ef.Satisfied)

	if err := probeCore(tr, root.ID(), ramp, recs, o); err != nil {
		return err
	}
	o.values["fair.weighted_audit_ms"] = repeatMedian(tr, "fair.Weighted{SharingIncentives,EnvyFreeness}", root.ID(), 5, func() {
		if _, err = fair.WeightedSharingIncentives(utils, serveCapacity, rows, budgets, tol); err == nil {
			_, err = fair.WeightedEnvyFreeness(utils, rows, budgets, tol)
		}
	}) / 1e3
	if err != nil {
		return err
	}
	probeCredit(tr, root.ID(), srv, names, o)
	return probeHier(tr, root.ID(), ramp, o)
}

// probeHTTPLayers times the read path's HTTP layer alone:
// Handler().ServeHTTP into an in-memory recorder, with no socket, for
// point and delta reads of live tenants, and records the response sizes.
func probeHTTPLayers(tr *tracer, parent uint64, srv *serve.Server, names []string, rng *rand.Rand, o *outcome) {
	h := srv.Handler()
	cur := srv.Current().Epoch
	delta := fmt.Sprintf("/v1/allocation?since=%d", cur-min(cur, 8))
	for _, q := range []struct {
		key   string
		calls int
		url   func() string
	}{
		{"point", 2000, func() string { return "/v1/allocation?agent=" + names[rng.Intn(len(names))] }},
		{"delta", 200, func() string { return delta }},
	} {
		urls := make([]string, q.calls)
		for i := range urls {
			urls[i] = q.url()
		}
		var bytes int
		o.values["http.handler_us."+q.key] = perCallMedian(tr, "serve.Handler.ServeHTTP "+q.key, parent, q.calls, func(i int) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, urls[i], nil))
			bytes += rec.Body.Len()
		})
		o.values["http.resp_bytes."+q.key] = float64(bytes) / float64(q.calls)
	}
}

// flightStages reads the flight recorder's epochs after epoch0 (the timed
// phase and drain) into the serve.* per-layer metrics.
func flightStages(srv *serve.Server, epoch0 uint64, o *outcome) {
	var epochs, batch, resums, shed int64
	var apply, alloc, audit, publish, maxTotal float64
	for _, r := range srv.FlightState().Records {
		if r.Epoch <= epoch0 {
			continue
		}
		epochs++
		batch += int64(r.BatchSize)
		shed += r.Shed
		if r.Resummed {
			resums++
		}
		apply += r.ApplySeconds
		alloc += r.AllocateSeconds
		audit += r.AuditSeconds
		publish += r.PublishSeconds
		maxTotal = max(maxTotal, r.TotalSeconds)
	}
	e := float64(max(epochs, 1))
	o.values["serve.epochs"] = float64(epochs)
	o.values["serve.batch_mean"] = float64(batch) / e
	o.values["serve.shed"] = float64(shed)
	o.values["serve.resums"] = float64(resums)
	o.values["serve.stage.apply_ms"] = 1e3 * apply / e
	o.values["serve.stage.allocate_ms"] = 1e3 * alloc / e
	o.values["serve.stage.audit_ms"] = 1e3 * audit / e
	o.values["serve.stage.publish_ms"] = 1e3 * publish / e
	o.values["serve.epoch_max_ms"] = 1e3 * maxTotal
}

// liveNames reconstructs the live tenant names after the loop from the
// ramp size and the successful joins and leaves.
func liveNames(recs []opRecord, ramped int) []string {
	live := make(map[string]bool, ramped)
	for k := 0; k < ramped; k++ {
		live[tenantName(k)] = true
	}
	for _, r := range recs {
		switch {
		case r.failed:
		case r.kind == opJoin:
			live[r.name] = true
		case r.kind == opLeave:
			delete(live, r.name)
		}
	}
	names := make([]string, 0, len(live))
	for n := range live {
		names = append(names, n)
	}
	return names
}

// perCallMedian times calls of fn one by one inside one span and returns
// the median call in microseconds.
func perCallMedian(tr *tracer, name string, parent uint64, calls int, fn func(i int)) float64 {
	times := make([]float64, calls)
	sp := tr.begin(name, parent, 0)
	for i := range times {
		start := time.Now()
		fn(i)
		times[i] = float64(time.Since(start)) / 1e3
	}
	tr.end(sp, calls)
	return median(times)
}

// repeatMedian runs fn reps times, each in its own span, and returns the
// median in microseconds.
func repeatMedian(tr *tracer, name string, parent uint64, reps int, fn func()) float64 {
	times := make([]float64, reps)
	for i := range times {
		times[i] = float64(tr.timed(name, parent, 1, fn)) / 1e3
	}
	return median(times)
}

// probeCore replays the workload into core.IncrementalAllocator: the ramp
// population untimed, then the timed phase's successful mutations in due
// order, in batches of the server's mean batch size, one epoch each.
func probeCore(tr *tracer, parent uint64, ramp [][]float64, recs []opRecord, o *outcome) error {
	a, err := core.NewIncrementalAllocator(serveCapacity, core.IncrementalOptions{})
	if err != nil {
		return err
	}
	var uerr error
	tr.timed("core.IncrementalAllocator.Upsert(ramp)", parent, len(ramp), func() {
		for k, el := range ramp {
			if uerr = upsert(a, tenantName(k), el); uerr != nil {
				return
			}
		}
		a.EndEpoch()
	})
	if uerr != nil {
		return uerr
	}
	var muts []*opRecord
	for i := range recs {
		if r := &recs[i]; r.kind.mutation() && !r.failed {
			muts = append(muts, r)
		}
	}
	size := max(1, int(o.values["serve.batch_mean"]+0.5))
	var epochs []float64
	for lo := 0; lo < len(muts); lo += size {
		batch := muts[lo:min(lo+size, len(muts))]
		d := tr.timed("core.IncrementalAllocator.epoch", parent, len(batch), func() {
			for _, r := range batch {
				if r.kind == opLeave {
					uerr = a.Remove(r.name)
				} else {
					uerr = upsert(a, r.name, r.elast)
				}
				if uerr != nil {
					return
				}
			}
			a.EndEpoch()
		})
		if uerr != nil {
			return fmt.Errorf("core replay: %w", uerr)
		}
		epochs = append(epochs, float64(d)/1e3)
	}
	o.values["core.epoch_us"] = median(epochs)
	o.values["core.resum_ms"] = repeatMedian(tr, "core.IncrementalAllocator.Resum", parent, 3, a.Resum) / 1e3
	return nil
}

func upsert(a *core.IncrementalAllocator, name string, el []float64) error {
	u, err := cobb.New(1, el...)
	if err != nil {
		return err
	}
	return a.Upsert(name, u)
}

// probeCredit settles a credit ledger of one account per live tenant at
// the tenants' served share rates: Decay, Accrue and Budget over all N
// accounts, as the server's credit pass does each epoch.
func probeCredit(tr *tracer, parent uint64, srv *serve.Server, names []string, o *outcome) {
	p := core.CreditParams{HalfLifeSeconds: 30}.WithDefaults()
	rates := make([]float64, len(names))
	for i, n := range names {
		rates[i] = core.ShareRate(srv.AgentRow(n).Allocation, serveCapacity)
	}
	accounts := make([]core.CreditAccount, len(names))
	const dt = 0.01 // one default epoch window
	var sum float64
	o.values["credit.settle_ms"] = repeatMedian(tr, "core.CreditParams.settle", parent, 5, func() {
		decay := p.Decay(dt)
		fairDt := dt / float64(len(accounts))
		sum = 0
		for i := range accounts {
			accounts[i].Accrue(decay, rates[i]*dt, fairDt)
			sum += p.Budget(accounts[i])
		}
	}) / 1e3
	o.check(sum > 0, "credit settle budget sum %v", sum)
}

// creditTreeQueues is the queue tree the traced run's hier probe builds:
// two organisations with quotas, each with four quota'd leaves.
func creditTreeQueues() []hier.QueueConfig {
	var qs []hier.QueueConfig
	for o, org := range []string{"org-a", "org-b"} {
		qs = append(qs, hier.QueueConfig{Name: org, Quota: []float64{6 + 2*float64(o), 3 + float64(o)}})
		for l := 0; l < 4; l++ {
			qs = append(qs, hier.QueueConfig{
				Name:   fmt.Sprintf("%s-leaf%d", org, l),
				Parent: org,
				Quota:  []float64{1 + 0.25*float64(l), 0.5 + 0.125*float64(l)},
			})
		}
	}
	return qs
}

func treeLeaves() []string {
	var ls []string
	for _, q := range creditTreeQueues() {
		if q.Parent != "" {
			ls = append(ls, q.Name)
		}
	}
	return ls
}

// probeHier builds the two-organisation queue tree, joins the ramp
// population into its leaves with AgentDelta, and times Allocate and
// AuditTree over it.
func probeHier(tr *tracer, parent uint64, ramp [][]float64, o *outcome) error {
	leaves := treeLeaves()
	t, err := hier.NewTree(serveCapacity, &hier.TreeConfig{Queues: creditTreeQueues()}, hier.Options{})
	if err != nil {
		return err
	}
	weights := make([][]float64, len(ramp))
	for k, el := range ramp {
		u, err := cobb.New(1, el...)
		if err != nil {
			return err
		}
		weights[k] = u.Rescaled().Alpha
	}
	d := tr.timed("hier.Tree.AgentDelta", parent, len(ramp), func() {
		for k := range ramp {
			if err = t.AgentDelta("", leaves[k%len(leaves)], nil, weights[k]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	o.values["hier.agent_delta_us"] = float64(d) / 1e3 / float64(len(ramp))
	var a *hier.Alloc
	o.values["hier.allocate_us"] = repeatMedian(tr, "hier.Tree.Allocate", parent, 20, func() { a = t.Allocate() })
	var rep hier.Report
	o.values["hier.audit_us"] = repeatMedian(tr, "hier.AuditTree", parent, 20, func() { rep = hier.AuditTree(t, a, 0) })
	o.check(rep.Ok(), "queue-tree audit of the ramp population: floors=%v SI=%v EF=%v", rep.Floors, rep.SI, rep.EF)
	return nil
}
