package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"ref/internal/cache"
	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/dram"
	"ref/internal/exp"
	"ref/internal/fair"
	"ref/internal/fit"
	"ref/internal/mech"
	"ref/internal/par"
	"ref/internal/platform"
	"ref/internal/sim"
	"ref/internal/trace"
	"ref/internal/workloads"
)

// figAccesses is the per-simulation access budget the committed fig13 and
// fig14 goldens were rendered at.
const figAccesses = 6000

// goldenDir holds the committed figure tables, relative to the repository
// root.
const goldenDir = "internal/exp/testdata"

// digestFile pins the fitted elasticities and simulated statistics.
const digestFile = "perfbench/testdata/repro.digest"

// setupRepeats is how many times repro-figs repeats its start-up to report
// the median: one start-up takes well under a millisecond, so a single
// reading is mostly noise.
const setupRepeats = 25

// figInputs is what repro-figs loads before its timed phase.
type figInputs struct {
	golden13, golden14 []string
	digest             string
}

// loadFigInputs reads the goldens and the expected digest and checks the
// catalog the figures are drawn from.
func loadFigInputs() (*figInputs, error) {
	var in figInputs
	for _, f := range []struct {
		name string
		dst  *[]string
	}{{"fig13", &in.golden13}, {"fig14", &in.golden14}} {
		raw, err := os.ReadFile(goldenDir + "/" + f.name + ".golden")
		if err != nil {
			return nil, fmt.Errorf("read golden: %w", err)
		}
		*f.dst = tableRows(raw)
	}
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		return nil, fmt.Errorf("read digest: %w", err)
	}
	in.digest = strings.TrimSpace(string(raw))
	for _, m := range workloads.Table2() {
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	for _, w := range trace.Catalog() {
		if err := w.Config.Validate(); err != nil {
			return nil, err
		}
	}
	return &in, nil
}

// tableRows returns a rendered figure's table rows: every line except the
// figure header and the "[... completed in ...]" timing footer.
func tableRows(out []byte) []string {
	var rows []string
	for _, line := range strings.Split(string(out), "\n") {
		if line == "" || strings.HasPrefix(line, "Figure ") || strings.HasPrefix(line, "[") {
			continue
		}
		rows = append(rows, line)
	}
	return rows
}

// compareRows counts rows of got that equal the golden row at the same
// position, and describes each mismatch.
func compareRows(fig string, got, want []string) (matched int, problems []string) {
	for i := 0; i < max(len(got), len(want)); i++ {
		switch {
		case i >= len(got):
			problems = append(problems, fmt.Sprintf("%s row %d missing, want %q", fig, i+1, want[i]))
		case i >= len(want):
			problems = append(problems, fmt.Sprintf("%s row %d unexpected: %q", fig, i+1, got[i]))
		case got[i] != want[i]:
			problems = append(problems, fmt.Sprintf("%s row %d = %q, golden %q", fig, i+1, got[i], want[i]))
		default:
			matched++
		}
	}
	return matched, problems
}

// runReproFigs regenerates Figures 13 and 14 from a cold fit memo in this
// fresh process. Its operations are the ten figure rows: a row's latency
// runs from the start of the regeneration to the figure that holds it
// being rendered, and a row succeeds when it matches its golden.
func runReproFigs(rc runConfig) (*outcome, error) {
	if rc.tr != nil {
		return traceReproLayers(rc)
	}
	o := newOutcome()
	var in *figInputs
	setups := make([]float64, setupRepeats)
	for i := range setups {
		start := time.Now()
		var err error
		if in, err = loadFigInputs(); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
	}
	o.values["setup_s"] = median(setups)

	cfg := exp.Config{Accesses: figAccesses, Parallelism: rc.procs}
	rss := startRSS()
	before := readProc()
	var rows dist
	rows.name = "figure rows"
	var problems []string
	ok := 0
	for _, f := range []struct {
		name string
		run  func(exp.Config) ([]exp.ThroughputRow, error)
		want []string
	}{{"fig13", exp.Fig13, in.golden13}, {"fig14", exp.Fig14, in.golden14}} {
		var buf bytes.Buffer
		c := cfg
		c.Out = &buf
		if _, err := f.run(c); err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		doneMs := float64(time.Since(before.wall)) / 1e6
		got := tableRows(buf.Bytes())
		m, p := compareRows(f.name, got, f.want)
		ok += m
		problems = append(problems, p...)
		for range f.want {
			rows.add(doneMs)
		}
	}
	after := readProc()
	ph := phase{before, after}
	o.attempted = int64(len(rows.ms))
	o.failed = o.attempted - int64(ok)
	o.problems = append(o.problems, problems...)
	o.values["figs_s"] = ph.seconds()
	o.values["op_p50_ms"] = rows.q(0.5)
	o.values["op_p90_ms"] = rows.windowedQ(0.9)
	o.values["ok_ops_per_s"] = float64(ok) / ph.seconds()
	o.values["cpu_us_per_op"] = ph.cpuSeconds() * 1e6 / float64(o.attempted)
	o.values["rss_peak_mb"] = float64(after.maxRSS) / (1 << 20)
	o.values["rss_mb"] = rss.medianMB(o.values["rss_peak_mb"])
	fmt.Println(rows.summary())

	digest, err := reproDigest(rc.procs)
	if err != nil {
		return nil, err
	}
	fmt.Println("repro digest:", digest)
	o.check(digest == in.digest, "repro digest %s, want %s (%s)", digest, in.digest, digestFile)
	return o, nil
}

// reproDigest hashes the fitted α of every catalog workload at the figure
// budget (served from the memo the regeneration filled) and the LLC miss
// rate and mean DRAM latency of one simulation per workload at the top
// grid point. Every input is deterministic, so the digest must repeat
// exactly across runs, seeds and parallelism.
func reproDigest(procs int) (string, error) {
	fitted, err := workloads.FitAllSpec(platform.Default(), figAccesses, procs)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, name := range workloads.SortedNames(fitted) {
		fmt.Fprintf(h, "%s %v\n", name, fitted[name].Fit.Utility.Alpha)
	}
	catalog := trace.Catalog()
	stats := make([]sim.RunResult, len(catalog))
	p := sim.DefaultPlatform(sim.LLCSizes[len(sim.LLCSizes)-1], sim.Bandwidths[len(sim.Bandwidths)-1])
	err = par.ForEach(len(catalog), procs, func(i int) error {
		r, err := sim.Run(catalog[i].Config, p, figAccesses)
		stats[i] = r
		return err
	})
	if err != nil {
		return "", err
	}
	for i, r := range stats {
		fmt.Fprintf(h, "%s %v %v\n", catalog[i].Config.Name, r.LLCMissRate, r.AvgMemLatency)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12]), nil
}

// figMechanisms are the four Figure 13 mechanisms with their metric
// suffixes.
var figMechanisms = []struct {
	key string
	m   mech.Mechanism
}{
	{"maxwelfair", mech.MaxWelfareFair{}},
	{"propelast", mech.ProportionalElasticity{}},
	{"maxwelunfair", mech.MaxWelfareUnfair{}},
	{"equalslow", mech.EqualSlowdown{}},
}

// traceReproLayers is repro-figs' traced run: it re-drives each layer's
// entry points on the catalog inputs of one Figure 13 mix the seed picks,
// timing trace generation, cache and DRAM accesses on the generated
// stream, single simulations, the grid sweep and Cobb-Douglas fit, the
// four mechanisms and the §4 audit.
func traceReproLayers(rc runConfig) (*outcome, error) {
	tr := rc.tr
	o := newOutcome()
	rng := rand.New(rand.NewSource(rc.seed))
	mixes := workloads.FourCore()
	mix := mixes[rng.Intn(len(mixes))]
	fmt.Printf("layer probe mix: %s %v\n", mix.ID, mix.Benchmarks)
	start := readProc()
	root := tr.begin("repro-figs.layers", 0, 0)

	var newGen, next, cacheAcc, dramAcc, runMs, cobbUs []float64
	var simAccesses, simSeconds, missSum, latSum float64
	var runs int
	fitted := map[string]*fit.Result{}
	top := sim.DefaultPlatform(sim.LLCSizes[len(sim.LLCSizes)-1], sim.Bandwidths[len(sim.Bandwidths)-1])
	for _, name := range mix.Benchmarks {
		if fitted[name] != nil {
			continue
		}
		w, err := trace.Lookup(name)
		if err != nil {
			return nil, err
		}
		wl := tr.begin("workload."+name, root.ID(), 0)
		var g *trace.Generator
		for i := 0; i < 5; i++ {
			d := tr.timed("trace.NewGenerator", wl.ID(), 1, func() { g, err = trace.NewGenerator(w.Config) })
			if err != nil {
				return nil, err
			}
			newGen = append(newGen, float64(d)/1e3)
		}
		const streamLen = 200000
		stream := make([]trace.Access, streamLen)
		d := tr.timed("trace.Generator.Next", wl.ID(), streamLen, func() {
			for i := range stream {
				stream[i] = g.Next()
			}
		})
		next = append(next, float64(d)/streamLen)

		llc, err := cache.New(top.LLC)
		if err != nil {
			return nil, err
		}
		d = tr.timed("cache.Cache.Access", wl.ID(), streamLen, func() {
			for _, a := range stream {
				llc.Access(a.Addr, a.Write)
			}
		})
		cacheAcc = append(cacheAcc, float64(d)/streamLen)

		mc, err := dram.New(top.DRAM)
		if err != nil {
			return nil, err
		}
		d = tr.timed("dram.Controller.Access", wl.ID(), streamLen, func() {
			var now int64
			for _, a := range stream {
				now += int64(a.Gap) + 1
				mc.Access(a.Addr, now)
			}
		})
		dramAcc = append(dramAcc, float64(d)/streamLen)

		for i := range sim.LLCSizes {
			p := sim.DefaultPlatform(sim.LLCSizes[i], sim.Bandwidths[i])
			var r sim.RunResult
			d := tr.timed("sim.Run", wl.ID(), 1, func() { r, err = sim.Run(w.Config, p, figAccesses) })
			if err != nil {
				return nil, err
			}
			runMs = append(runMs, float64(d)/1e6)
			simAccesses += figAccesses
			simSeconds += d.Seconds()
			missSum += r.LLCMissRate
			latSum += r.AvgMemLatency
			runs++
		}

		var prof *fit.Profile
		tr.timed("sim.SweepGridParallel", wl.ID(), len(sim.LLCSizes)*len(sim.Bandwidths), func() {
			prof, err = sim.SweepGridParallel(w.Config, figAccesses, sim.LLCSizes, sim.Bandwidths, rc.procs)
		})
		if err != nil {
			return nil, err
		}
		var res *fit.Result
		for i := 0; i < 20; i++ {
			d := tr.timed("fit.CobbDouglas", wl.ID(), 1, func() { res, err = fit.CobbDouglas(prof) })
			if err != nil {
				return nil, err
			}
			cobbUs = append(cobbUs, float64(d)/1e3)
		}
		fitted[name] = res
		tr.end(wl, 1)
	}

	agents := make([]core.Agent, len(mix.Benchmarks))
	for i, name := range mix.Benchmarks {
		agents[i] = core.Agent{Name: fmt.Sprintf("%s#%d", name, i), Utility: fitted[name].Utility}
	}
	capacity := exp.SystemCapacity(len(agents))
	var refAlloc [][]float64
	for _, fm := range figMechanisms {
		var times []float64
		for i := 0; i < 3; i++ {
			var x [][]float64
			var err error
			d := tr.timed("mech."+fm.m.Name(), root.ID(), 1, func() { x, err = fm.m.Allocate(agents, capacity) })
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", fm.m.Name(), mix.ID, err)
			}
			times = append(times, float64(d)/1e6)
			if fm.key == "propelast" {
				refAlloc = x
			}
		}
		o.values["mech.alloc_ms."+fm.key] = median(times)
	}
	utils := make([]cobb.Utility, len(agents))
	for i, a := range agents {
		utils[i] = a.Utility
	}
	var audits []float64
	var rep fair.Report
	for i := 0; i < 20; i++ {
		var err error
		d := tr.timed("fair.Audit", root.ID(), 1, func() {
			rep, err = fair.Audit(utils, capacity, refAlloc, fair.DefaultTolerance())
		})
		if err != nil {
			return nil, err
		}
		audits = append(audits, float64(d)/1e3)
	}
	o.check(rep.All(), "REF audit of %s failed: %s", mix.ID, rep)
	tr.end(root, 1)
	ph := phase{start, readProc()}

	o.attempted = int64(runs + len(figMechanisms))
	o.values["trace.newgen_us"] = median(newGen)
	o.values["trace.next_ns"] = median(next)
	o.values["cache.access_ns"] = median(cacheAcc)
	o.values["dram.access_ns"] = median(dramAcc)
	o.values["sim.run_ms"] = median(runMs)
	o.values["sim.maccess_per_s"] = simAccesses / simSeconds / 1e6
	o.values["cache.llc_miss_rate"] = missSum / float64(runs)
	o.values["dram.avg_latency_cycles"] = latSum / float64(runs)
	o.values["fit.cobb_us"] = median(cobbUs)
	o.values["fair.audit_us"] = median(audits)
	o.values["go.gc_cpu_frac"] = ph.gcCPUFrac()
	o.values["go.heap_mb"] = float64(ph.to.heap) / (1 << 20)
	o.values["trace.overhead_pct"] = overheadPct(tr, ph)
	return o, nil
}
