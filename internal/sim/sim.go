// Package sim wires the substrate models — synthetic traces
// (internal/trace), the cache hierarchy (internal/cache), the DRAM
// controller (internal/dram), and the out-of-order core (internal/cpu) —
// into the full platform of Table 1, replacing the MARSSx86 + DRAMSim2
// stack the REF paper profiles with. It runs single workloads at any
// (LLC capacity, memory bandwidth) point, sweeps the paper's 5×5
// configuration grid to produce performance profiles for Cobb-Douglas
// fitting, and co-runs multiple agents under an enforced allocation
// (way-partitioned LLC, bandwidth shares).
package sim

import (
	"fmt"

	"ref/internal/cache"
	"ref/internal/cpu"
	"ref/internal/dram"
	"ref/internal/fit"
	"ref/internal/obs"
	"ref/internal/platform"
	"ref/internal/trace"
)

// ErrBadPlatform reports invalid platform parameters. It is the same error
// value as platform.ErrBadPlatform, so errors.Is matches across both
// packages.
var ErrBadPlatform = platform.ErrBadPlatform

// LLCSizes is Table 1's L2 capacity ladder in bytes.
var LLCSizes = []int{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20}

// Bandwidths is Table 1's DRAM bandwidth ladder in GB/s.
var Bandwidths = []float64{0.8, 1.6, 3.2, 6.4, 12.8}

// Platform bundles the component configurations of Table 1. It is an alias
// for platform.Platform — the struct moved to internal/platform when the
// machine became a set of generic resource dimensions (platform.Spec), and
// the alias keeps every existing constructor and field reference working.
type Platform = platform.Platform

// DefaultPlatform returns Table 1's platform at one grid point: 3 GHz
// 4-wide OOO core, 32 KB 4-way L1 (2-cycle), 8-way LLC of the given size
// (20-cycle), single-channel closed-page DRAM at the given bandwidth.
func DefaultPlatform(llcBytes int, bandwidthGBps float64) Platform {
	return platform.DefaultPlatform(llcBytes, bandwidthGBps)
}

// hierarchy chains L1 → LLC → DRAM for one agent.
type hierarchy struct {
	l1, llc  *cache.Cache
	mc       *dram.Controller
	prefetch bool
}

// access resolves one reference and returns its completion cycle.
func (h *hierarchy) access(addr uint64, write bool, now int64) int64 {
	if h.l1.Access(addr, write).Hit {
		return now + int64(h.l1.Config().HitLatency)
	}
	llcRes := h.llc.Access(addr, write)
	if llcRes.Hit {
		// Tagged next-line prefetch: hits keep the prefetch stream alive,
		// otherwise coverage alternates miss/hit down a sequential walk.
		h.issuePrefetch(addr, now)
		return now + int64(h.l1.Config().HitLatency) + int64(h.llc.Config().HitLatency)
	}
	if llcRes.Writeback {
		// Dirty victims drain to DRAM in the background: they consume
		// bandwidth (delaying later fills) but nothing waits on them.
		h.mc.Access(llcRes.EvictedAddr, now)
	}
	done := h.mc.Access(addr, now+int64(h.l1.Config().HitLatency)+int64(h.llc.Config().HitLatency))
	h.issuePrefetch(addr, done)
	return done
}

// issuePrefetch fills addr's successor block in the background when the
// prefetcher is enabled. Nothing waits on it, but it occupies the bus, a
// bank, and a cache line — prefetching is not free bandwidth.
func (h *hierarchy) issuePrefetch(addr uint64, when int64) {
	if !h.prefetch {
		return
	}
	next := addr + uint64(h.llc.Config().BlockBytes)
	if h.llc.Contains(next) {
		return
	}
	if pfRes := h.llc.Access(next, false); pfRes.Writeback {
		h.mc.Access(pfRes.EvictedAddr, when)
	}
	h.mc.Access(next, when)
}

// genSource adapts a trace generator to the core's AccessSource.
type genSource struct{ g *trace.Generator }

func (s genSource) NextAccess() (uint64, bool, int) {
	a := s.g.Next()
	return a.Addr, a.Write, a.Gap
}

// RunResult is one single-workload simulation outcome.
type RunResult struct {
	Core cpu.Result
	// LLCMissRate is the LLC local miss rate.
	LLCMissRate float64
	// L1MissRate is the L1 miss rate.
	L1MissRate float64
	// AvgMemLatency is the mean DRAM request latency in cycles.
	AvgMemLatency float64
}

// IPC returns the run's instructions per cycle.
func (r RunResult) IPC() float64 { return r.Core.IPC() }

// Run simulates one workload alone on the platform for nAccesses memory
// references (the synthetic analogue of the paper's 100M-instruction ROI).
func Run(w trace.Config, p Platform, nAccesses int) (RunResult, error) {
	if err := p.Validate(); err != nil {
		return RunResult{}, err
	}
	if nAccesses <= 0 {
		return RunResult{}, fmt.Errorf("%w: nAccesses = %d", ErrBadPlatform, nAccesses)
	}
	gen, err := trace.NewGenerator(w)
	if err != nil {
		return RunResult{}, fmt.Errorf("sim: %w", err)
	}
	l1, err := cache.New(p.L1)
	if err != nil {
		return RunResult{}, fmt.Errorf("sim: %w", err)
	}
	llc, err := cache.New(p.LLC)
	if err != nil {
		return RunResult{}, fmt.Errorf("sim: %w", err)
	}
	mc, err := dram.New(p.DRAM)
	if err != nil {
		return RunResult{}, fmt.Errorf("sim: %w", err)
	}
	h := &hierarchy{l1: l1, llc: llc, mc: mc, prefetch: p.Prefetch}
	core, err := cpu.New(p.Core, h.access)
	if err != nil {
		return RunResult{}, fmt.Errorf("sim: %w", err)
	}
	// Warm the hierarchy as one coldest-first pass over the working set
	// would, so measurement starts from the reuse distribution's steady
	// state rather than an all-compulsory-miss transient.
	warm := gen.WarmupAddrs()
	l1.Warm(warm)
	llc.Warm(warm)
	res := core.Run(genSource{gen}, nAccesses)
	recordRunMetrics(nAccesses, l1, llc, mc)
	return RunResult{
		Core:          res,
		LLCMissRate:   llc.Stats().MissRate(),
		L1MissRate:    l1.Stats().MissRate(),
		AvgMemLatency: mc.Stats().AvgLatency(),
	}, nil
}

// recordRunMetrics publishes one finished run's hierarchy statistics to
// the installed obs registry. Counters aggregate across runs; latency and
// queueing land in histograms at per-run granularity, so instrumentation
// never executes inside the simulated access loop.
func recordRunMetrics(nAccesses int, l1, llc *cache.Cache, mc *dram.Controller) {
	r := obs.Installed()
	if r == nil {
		return
	}
	r.Counter("ref_sim_runs_total").Inc()
	r.Counter("ref_sim_accesses_total").Add(int64(nAccesses))
	l1s, llcs, ds := l1.Stats(), llc.Stats(), mc.Stats()
	r.Counter("ref_sim_l1_hits_total").Add(int64(l1s.Hits))
	r.Counter("ref_sim_l1_misses_total").Add(int64(l1s.Misses))
	r.Counter("ref_sim_llc_hits_total").Add(int64(llcs.Hits))
	r.Counter("ref_sim_llc_misses_total").Add(int64(llcs.Misses))
	r.Counter("ref_sim_llc_writebacks_total").Add(int64(llcs.Writebacks))
	r.Counter("ref_dram_requests_total").Add(int64(ds.Requests))
	r.Counter("ref_dram_bus_busy_cycles_total").Add(int64(ds.BusBusyCycles))
	if ds.Requests > 0 {
		r.Histogram("ref_dram_effective_latency_cycles").Observe(ds.AvgLatency())
		r.Histogram("ref_dram_queue_wait_cycles").Observe(ds.AvgQueueWait())
		r.Histogram("ref_dram_peak_queue_wait_cycles").Observe(float64(ds.PeakQueueWaitCycles))
	}
}

// Sweep profiles a workload over the full Table 1 grid (5 LLC sizes × 5
// bandwidths) and returns a fit-ready profile whose allocation vectors are
// (bandwidth GB/s, cache MB) — the paper's (x, y) convention. Grid points
// run concurrently on the default worker pool.
func Sweep(w trace.Config, nAccesses int) (*fit.Profile, error) {
	return SweepGridParallel(w, nAccesses, LLCSizes, Bandwidths, 0)
}

// SweepParallel is Sweep with an explicit worker-pool width (≤ 0 selects
// the default: $REF_PARALLELISM or GOMAXPROCS).
func SweepParallel(w trace.Config, nAccesses, parallelism int) (*fit.Profile, error) {
	return SweepGridParallel(w, nAccesses, LLCSizes, Bandwidths, parallelism)
}

// SweepGrid profiles a workload over an arbitrary grid. Used directly by
// the grid-density ablation.
func SweepGrid(w trace.Config, nAccesses int, llcSizes []int, bandwidths []float64) (*fit.Profile, error) {
	return SweepGridParallel(w, nAccesses, llcSizes, bandwidths, 0)
}

// SweepGridParallel runs the grid's independent platform simulations on a
// bounded worker pool. It is the legacy two-axis entry point, now a thin
// wrapper over SweepSpecParallel with the default (bandwidth, cache) spec
// carrying the requested ladders: every grid point builds its own trace
// generator from the workload's configured seed, so results are
// bit-identical to serial execution (parallelism 1) regardless of
// scheduling, and samples are emitted in the same bandwidth-major order
// the original serial loop produced. The returned profile carries no dim
// names, preserving the historical "resource0,resource1" CSV header.
func SweepGridParallel(w trace.Config, nAccesses int, llcSizes []int, bandwidths []float64, parallelism int) (*fit.Profile, error) {
	if len(llcSizes) == 0 || len(bandwidths) == 0 {
		return nil, fmt.Errorf("%w: empty sweep grid", ErrBadPlatform)
	}
	spec := platform.Default()
	spec.Dims[0].Levels = append([]float64(nil), bandwidths...)
	cacheMB := make([]float64, len(llcSizes))
	for i, sz := range llcSizes {
		cacheMB[i] = float64(sz) / (1 << 20) // exact: sizes are whole bytes, 2^20 is a power of two
	}
	spec.Dims[1].Levels = cacheMB
	p, err := SweepSpecParallel(w, spec, nAccesses, parallelism)
	if err != nil {
		return nil, err
	}
	p.Names = nil
	return p, nil
}
