package sim

import (
	"fmt"

	"ref/internal/cache"
	"ref/internal/cpu"
	"ref/internal/dram"
	"ref/internal/obs"
	"ref/internal/trace"
)

// UnmanagedCoRun simulates N workloads sharing one platform with NO
// allocation at all: private L1s, one globally-shared LLC (every agent's
// fills can evict every other agent's blocks), and one shared FCFS memory
// controller. Cores are interleaved by a smallest-clock-first scheduler, so
// contention is resolved in (approximate) global time order.
//
// This is the baseline the REF paper's premise rests on — unmanaged sharing
// lets an aggressive workload destroy a cache-friendly neighbor — and the
// counterpart of CoRun, which enforces an allocation via partitioning.
// Agents' address spaces are disjoint (offset per agent) so sharing effects
// come from capacity and bandwidth, not aliasing.
func UnmanagedCoRun(workloadCfgs []trace.Config, totalLLC cache.Config, totalBandwidth float64, nAccesses int) (*CoRunResult, error) {
	n := len(workloadCfgs)
	if n == 0 {
		return nil, fmt.Errorf("%w: no workloads", ErrBadPlatform)
	}
	if nAccesses <= 0 {
		return nil, fmt.Errorf("%w: nAccesses = %d", ErrBadPlatform, nAccesses)
	}
	if err := totalLLC.Validate(); err != nil {
		return nil, fmt.Errorf("%w: LLC: %v", ErrBadPlatform, err)
	}
	llc, err := cache.New(totalLLC)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	mc, err := dram.New(dram.DefaultConfig(totalBandwidth))
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	type agentState struct {
		gen     *trace.Generator
		l1      *cache.Cache
		stepper *cpu.Stepper
		steps   int
		offset  uint64
	}
	agents := make([]*agentState, n)
	// warm is the agents' offset warm-up streams, concatenated in order.
	var warm []uint64
	base := DefaultPlatform(totalLLC.SizeBytes, totalBandwidth)
	for i, wc := range workloadCfgs {
		gen, err := trace.NewGenerator(wc)
		if err != nil {
			return nil, fmt.Errorf("sim: agent %d: %w", i, err)
		}
		l1, err := cache.New(base.L1)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		st := &agentState{gen: gen, l1: l1, offset: uint64(i) << 40}
		// Shared hierarchy for this agent: private L1, shared LLC/DRAM.
		mem := func(addr uint64, write bool, now int64) int64 {
			a := addr + st.offset
			if st.l1.Access(a, write).Hit {
				return now + int64(base.L1.HitLatency)
			}
			res := llc.Access(a, write)
			if res.Hit {
				return now + int64(base.L1.HitLatency) + int64(totalLLC.HitLatency)
			}
			if res.Writeback {
				mc.Access(res.EvictedAddr, now)
			}
			return mc.Access(a, now+int64(base.L1.HitLatency)+int64(totalLLC.HitLatency))
		}
		stepper, err := cpu.NewStepper(base.Core, mem)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		agents[i] = st
		agents[i].stepper = stepper
		// Warm the private L1 with this agent's working set.
		start := len(warm)
		for _, addr := range gen.WarmupAddrs() {
			warm = append(warm, addr+st.offset)
		}
		l1.Warm(warm[start:])
	}
	// The shared LLC saw the agents' warm-up passes one after another.
	llc.Warm(warm)

	// Interleave by global time: always step the agent whose core clock is
	// furthest behind, so shared-resource accesses arrive in approximate
	// global order.
	remaining := n
	for remaining > 0 {
		var pick *agentState
		for _, a := range agents {
			if a.steps >= nAccesses {
				continue
			}
			if pick == nil || a.stepper.Cycle() < pick.stepper.Cycle() {
				pick = a
			}
		}
		pick.stepper.Step(genSource{pick.gen})
		pick.steps++
		if pick.steps == nAccesses {
			remaining--
		}
	}
	out := &CoRunResult{Agents: make([]RunResult, n)}
	for i, a := range agents {
		res := a.stepper.Finish()
		out.Agents[i] = RunResult{
			Core:          res,
			L1MissRate:    a.l1.Stats().MissRate(),
			LLCMissRate:   llc.Stats().MissRate(), // shared: global rate
			AvgMemLatency: mc.Stats().AvgLatency(),
		}
	}
	if r := obs.Installed(); r != nil {
		r.Counter("ref_sim_unmanaged_corun_total").Inc()
		r.Counter("ref_sim_accesses_total").Add(int64(n * nAccesses))
		llcs, ds := llc.Stats(), mc.Stats()
		r.Counter("ref_sim_llc_hits_total").Add(int64(llcs.Hits))
		r.Counter("ref_sim_llc_misses_total").Add(int64(llcs.Misses))
		r.Counter("ref_dram_requests_total").Add(int64(ds.Requests))
		r.Counter("ref_dram_bus_busy_cycles_total").Add(int64(ds.BusBusyCycles))
		if ds.Requests > 0 {
			r.Histogram("ref_dram_effective_latency_cycles").Observe(ds.AvgLatency())
			r.Histogram("ref_dram_queue_wait_cycles").Observe(ds.AvgQueueWait())
			r.Histogram("ref_dram_peak_queue_wait_cycles").Observe(float64(ds.PeakQueueWaitCycles))
		}
	}
	return out, nil
}
