package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ref/internal/cobb"
	"ref/internal/serve"
)

// serveCapacity is the two-resource machine serve-flat runs:
// 24 GB/s of bandwidth and 12 MB of cache.
var serveCapacity = []float64{24, 12}

// trafficMix is the open loop's operation mix: join 1, leave 1, update 2,
// read 6.
var trafficMix = []mixWeight{{opJoin, 1}, {opLeave, 1}, {opUpdate, 2}, {opRead, 6}}

// maxInflight bounds outstanding open-loop operations.
const maxInflight = 1024

// serveSetupRepeats is how many times a serve run boots and ramps a
// server to report the median set-up time; the last server is measured.
const serveSetupRepeats = 3

// serve-flat's scale: tenants ramped at set-up and open-loop operations
// per second.
const (
	flatTenants = 40000
	flatRate    = 5000
)

// tenantName is the name of the k-th tenant the benchmark creates.
func tenantName(k int) string { return "t" + strconv.Itoa(1000000+k) }

// randomElasticities draws raw two-resource elasticities.
func randomElasticities(rng *rand.Rand) []float64 {
	return []float64{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()}
}

func wire(k int, el []float64) (serve.WireAgent, cobb.Utility, error) {
	u, err := cobb.New(1, el...)
	return serve.WireAgent{Name: tenantName(k), Alpha0: 1, Elasticities: el}, u, err
}

// rampTenants generates the set-up population.
func rampTenants(rng *rand.Rand, n int) [][]float64 {
	els := make([][]float64, n)
	for k := range els {
		els[k] = randomElasticities(rng)
	}
	return els
}

// boot starts a server and joins the ramp population with at most half
// the server's queue depth in flight, so set-up is never shed.
func boot(cfg serve.Config, ramp [][]float64) (*serve.Server, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	const workers = 128 // half the default 256-deep mutation queue
	var next atomic.Int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(ramp) {
					return
				}
				wire, u, err := wire(k, ramp[k])
				if err != nil {
					errs <- err
					return
				}
				if _, _, _, aerr := srv.Join(context.Background(), wire, u); aerr != nil {
					errs <- fmt.Errorf("ramp join %s: %w", wire.Name, aerr)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		_ = srv.Close(context.Background()) // already failing; the ramp error is the one to report
		return nil, err
	}
	return srv, nil
}

// setupServer boots and ramps serveSetupRepeats servers, closing all but
// the last, and returns the last with the median set-up time.
func setupServer(cfg serve.Config, ramp [][]float64) (*serve.Server, float64, error) {
	times := make([]float64, serveSetupRepeats)
	var srv *serve.Server
	for i := range times {
		if srv != nil {
			if err := closeServer(srv); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		var err error
		if srv, err = boot(cfg, ramp); err != nil {
			return nil, 0, err
		}
		times[i] = time.Since(start).Seconds()
	}
	fmt.Printf("set-up: %d tenants, boot+ramp seconds %.3f\n", len(ramp), times)
	return srv, median(times), nil
}

func closeServer(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return srv.Close(ctx)
}

// livePool is the set of tenants the generator may target. A tenant
// enters after its join is acknowledged and leaves before its leave is
// sent; busy counts its outstanding operations so a leave never races
// an update or read of the same tenant.
type livePool struct {
	mu    sync.Mutex
	names []int
	index map[int]int
	busy  map[int]int
}

func newLivePool(n int) *livePool {
	p := &livePool{names: make([]int, 0, n), index: make(map[int]int, n), busy: map[int]int{}}
	for k := 0; k < n; k++ {
		p.add(k)
	}
	return p
}

func (p *livePool) add(k int) {
	p.index[k] = len(p.names)
	p.names = append(p.names, k)
}

func (p *livePool) remove(k int) {
	i := p.index[k]
	last := p.names[len(p.names)-1]
	p.names[i] = last
	p.index[last] = i
	p.names = p.names[:len(p.names)-1]
	delete(p.index, k)
}

// pick returns a random live tenant, marked busy until done is called.
// For a leave it returns one with nothing outstanding and removes it.
func (p *livePool) pick(rng *rand.Rand, leave bool) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for try := 0; try < 16 && len(p.names) > 0; try++ {
		k := p.names[rng.Intn(len(p.names))]
		if !leave {
			p.busy[k]++
			return k, true
		}
		if p.busy[k] == 0 {
			p.remove(k)
			return k, true
		}
	}
	return 0, false
}

func (p *livePool) done(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.busy[k]--; p.busy[k] == 0 {
		delete(p.busy, k)
	}
}

func (p *livePool) joined(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.add(k)
}

func (p *livePool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.names)
}

// runServeFlat boots and ramps the server, runs an open loop of the
// traffic mix at flatRate against the Go API, then drains and checks.
func runServeFlat(rc runConfig) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(rc.seed))
	ramp := rampTenants(rng, flatTenants)
	ops := plan(rng, flatRate, rc.seconds, trafficMix)
	cfg := serve.Config{Capacity: serveCapacity} // the default configuration
	if rc.tr != nil {
		cfg.FlightRecorder = 1 << 14
	}
	srv, setupS, err := setupServer(cfg, ramp)
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = setupS

	pool := newLivePool(flatTenants)
	nextID := flatTenants
	var joins, leaves atomic.Int64
	joins.Store(int64(flatTenants))
	tr := rc.tr
	root := tr.begin("open-loop", 0, 0)
	epoch0 := srv.Current().Epoch
	rss := startRSS()
	before := readProc()
	recs := openLoop(before.wall, ops, maxInflight, func(i int, rec *opRecord) func() bool {
		var k int
		switch rec.kind {
		case opJoin:
			k, nextID = nextID, nextID+1
		default:
			var ok bool
			if k, ok = pool.pick(rng, rec.kind == opLeave); !ok {
				return nil
			}
		}
		rec.name = tenantName(k)
		if rec.kind == opJoin || rec.kind == opUpdate {
			rec.elast = randomElasticities(rng)
		}
		op := uint64(i + 1)
		return func() bool {
			ctx := context.Background()
			switch rec.kind {
			case opJoin:
				wire, u, err := wire(k, rec.elast)
				if err != nil {
					return true
				}
				sp := tr.begin("serve.Server.Join", root.ID(), op)
				_, _, _, aerr := srv.Join(ctx, wire, u)
				tr.end(sp, 1)
				if aerr != nil {
					return true
				}
				joins.Add(1)
				pool.joined(k)
				return false
			case opLeave:
				sp := tr.begin("serve.Server.Leave", root.ID(), op)
				_, aerr := srv.Leave(ctx, rec.name)
				tr.end(sp, 1)
				if aerr != nil {
					// A shed leave did not apply, so the tenant stays a
					// target. (A timed-out one may still apply; the final
					// population check would then report it.)
					pool.joined(k)
					return true
				}
				leaves.Add(1)
				return false
			case opUpdate:
				defer pool.done(k)
				wire, u, err := wire(k, rec.elast)
				if err != nil {
					return true
				}
				sp := tr.begin("serve.Server.Update", root.ID(), op)
				_, _, _, aerr := srv.Update(ctx, wire, u)
				tr.end(sp, 1)
				return aerr != nil
			default:
				defer pool.done(k)
				sp := tr.begin("serve.Server.AgentRow", root.ID(), op)
				row := srv.AgentRow(rec.name)
				tr.end(sp, 1)
				return row == nil || len(row.Allocation) != len(serveCapacity)
			}
		}
	})
	after := readProc()
	tr.end(root, len(recs))
	ph := phase{before, after}
	st := summarize(recs)
	reportLoop(o, st, ph, rss)
	o.values["mut_p50_ms"] = st.mut.q(0.5)
	o.values["mut_p99_ms"] = st.mut.q(0.99)
	o.values["read_p50_ms"] = st.read.q(0.5)
	o.values["read_p99_ms"] = st.read.q(0.99)
	o.values["op_p50_ms"] = o.values["mut_p50_ms"]
	o.values["op_p90_ms"] = st.mut.windowedQ(0.9)

	if tr != nil {
		if err := probeServeLayers(rc, srv, ramp, recs, epoch0, o); err != nil {
			return nil, err
		}
		o.values["trace.overhead_pct"] = overheadPct(tr, ph)
	}
	if err := closeServer(srv); err != nil {
		o.check(false, "drain: %v", err)
	}
	checkFinal(o, srv, int(joins.Load()-leaves.Load()), pool.size())
	return o, nil
}

// reportLoop records the end-to-end metrics every open loop shares.
func reportLoop(o *outcome, st *loopStats, ph phase, rss *rssSampler) {
	after := ph.to
	o.attempted = int64(len(st.mut.ms) + len(st.read.ms))
	o.failed = st.failed
	o.values["ok_ops_per_s"] = float64(st.ok) / ph.seconds()
	o.values["cpu_us_per_op"] = ph.cpuSeconds() * 1e6 / float64(max(o.attempted, 1))
	o.values["rss_peak_mb"] = float64(after.maxRSS) / (1 << 20)
	o.values["rss_mb"] = rss.medianMB(o.values["rss_peak_mb"])
	o.values["fail_frac"] = float64(st.failed) / float64(max(o.attempted, 1))
	o.values["gen.late_p99_ms"] = st.late.q(0.99)
	o.values["go.gc_cpu_frac"] = ph.gcCPUFrac()
	o.values["go.heap_mb"] = float64(after.heap) / (1 << 20)
	o.values["go.alloc_bytes_per_op"] = ph.allocBytes() / float64(max(o.attempted, 1))
	for _, d := range []*dist{&st.mut, &st.read, &st.late} {
		if len(d.ms) > 0 {
			fmt.Println(d.summary())
		}
	}
}

// checkFinal checks a drained server: its last snapshot's audit passed and
// its population equals acknowledged joins minus leaves (and the
// generator's own live pool).
func checkFinal(o *outcome, srv *serve.Server, want, pool int) {
	snap := srv.Current()
	o.check(snap.NumAgents() == want, "final population %d, want joins-leaves = %d", snap.NumAgents(), want)
	o.check(pool == want, "generator pool %d, want joins-leaves = %d", pool, want)
	f := snap.Fairness
	o.check(f != nil, "last snapshot (epoch %d) has no audit", snap.Epoch)
	if f != nil {
		o.check(f.SI && f.EF && f.PE && len(f.Violations) == 0,
			"last snapshot (epoch %d) audit SI=%v EF=%v PE=%v violations=%v", snap.Epoch, f.SI, f.EF, f.PE, f.Violations)
		if f.Hier != nil {
			o.check(f.Hier.Floors && f.Hier.SI && f.Hier.EF,
				"last snapshot hierarchical audit floors=%v SI=%v EF=%v", f.Hier.Floors, f.Hier.SI, f.Hier.EF)
		}
	}
	fmt.Printf("drained: epoch=%d agents=%d audit sampled=%v\n", snap.Epoch, snap.NumAgents(), f != nil && f.Sampled)
}
