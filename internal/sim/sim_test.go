package sim

import (
	"errors"
	"math"
	"testing"

	"ref/internal/cache"
	"ref/internal/fit"
	"ref/internal/trace"
)

const testAccesses = 12000

func cWorkload(t *testing.T) trace.Config {
	t.Helper()
	w, err := trace.Lookup("raytrace")
	if err != nil {
		t.Fatal(err)
	}
	return w.Config
}

func mWorkload(t *testing.T) trace.Config {
	t.Helper()
	w, err := trace.Lookup("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	return w.Config
}

func TestDefaultPlatformValid(t *testing.T) {
	for _, sz := range LLCSizes {
		for _, bw := range Bandwidths {
			if err := DefaultPlatform(sz, bw).Validate(); err != nil {
				t.Errorf("platform (%d, %v) invalid: %v", sz, bw, err)
			}
		}
	}
}

func TestPlatformValidateRejectsBadParts(t *testing.T) {
	p := DefaultPlatform(1<<20, 6.4)
	p.L1.SizeBytes = 0
	if err := p.Validate(); !errors.Is(err, ErrBadPlatform) {
		t.Error("bad L1 accepted")
	}
	p = DefaultPlatform(1<<20, 6.4)
	p.DRAM.BandwidthGBps = -1
	if err := p.Validate(); !errors.Is(err, ErrBadPlatform) {
		t.Error("bad DRAM accepted")
	}
	p = DefaultPlatform(1<<20, 6.4)
	p.Core.IssueWidth = 0
	if err := p.Validate(); !errors.Is(err, ErrBadPlatform) {
		t.Error("bad core accepted")
	}
	p = DefaultPlatform(1<<20, 6.4)
	p.LLC.Ways = 3
	if err := p.Validate(); !errors.Is(err, ErrBadPlatform) {
		t.Error("bad LLC accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(cWorkload(t), DefaultPlatform(1<<20, 6.4), 0); !errors.Is(err, ErrBadPlatform) {
		t.Error("zero accesses accepted")
	}
	bad := cWorkload(t)
	bad.ReuseTheta = 0
	if _, err := Run(bad, DefaultPlatform(1<<20, 6.4), 100); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	w := cWorkload(t)
	p := DefaultPlatform(512<<10, 3.2)
	a, err := Run(w, p, testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w, p, testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC() != b.IPC() || a.LLCMissRate != b.LLCMissRate {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestIPCIncreasesWithCacheForClassC(t *testing.T) {
	w := cWorkload(t)
	small, err := Run(w, DefaultPlatform(128<<10, 3.2), testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(w, DefaultPlatform(2<<20, 3.2), testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	if large.IPC() <= small.IPC()*1.2 {
		t.Errorf("cache-class workload barely benefits from cache: %v -> %v", small.IPC(), large.IPC())
	}
	if large.LLCMissRate >= small.LLCMissRate {
		t.Errorf("LLC miss rate did not fall: %v -> %v", small.LLCMissRate, large.LLCMissRate)
	}
}

func TestIPCIncreasesWithBandwidthForClassM(t *testing.T) {
	w := mWorkload(t)
	slow, err := Run(w, DefaultPlatform(1<<20, 0.8), testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(w, DefaultPlatform(1<<20, 12.8), testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	if fast.IPC() <= slow.IPC()*1.5 {
		t.Errorf("memory-class workload barely benefits from bandwidth: %v -> %v", slow.IPC(), fast.IPC())
	}
}

func TestSweepShape(t *testing.T) {
	prof, err := Sweep(cWorkload(t), 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Samples) != 25 {
		t.Fatalf("sweep produced %d samples, want 25", len(prof.Samples))
	}
	if err := prof.Validate(); err != nil {
		t.Fatalf("sweep profile invalid: %v", err)
	}
	// Allocation units: bandwidth in GB/s (0.8–12.8), cache in MB
	// (0.125–2).
	for _, s := range prof.Samples {
		if s.Alloc[0] < 0.8 || s.Alloc[0] > 12.8 {
			t.Errorf("bandwidth %v outside Table 1 ladder", s.Alloc[0])
		}
		if s.Alloc[1] < 0.125 || s.Alloc[1] > 2 {
			t.Errorf("cache %v MB outside Table 1 ladder", s.Alloc[1])
		}
	}
}

func TestSweepGridErrors(t *testing.T) {
	if _, err := SweepGrid(cWorkload(t), 100, nil, Bandwidths); !errors.Is(err, ErrBadPlatform) {
		t.Error("empty sizes accepted")
	}
	if _, err := SweepGrid(cWorkload(t), 100, LLCSizes, nil); !errors.Is(err, ErrBadPlatform) {
		t.Error("empty bandwidths accepted")
	}
}

// The headline integration test: sweeping a C workload and an M workload
// and fitting Cobb-Douglas must land their elasticities on the right side
// of 0.5 — the Figure 9 classification reproduced end to end.
func TestFittedElasticitiesMatchClass(t *testing.T) {
	cases := []struct {
		name       string
		wantCcache bool
	}{
		{"raytrace", true},
		{"dedup", false},
	}
	for _, c := range cases {
		w, err := trace.Lookup(c.name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := Sweep(w.Config, testAccesses)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fit.CobbDouglas(prof)
		if err != nil {
			t.Fatalf("%s: fit: %v", c.name, err)
		}
		r := res.Utility.Rescaled()
		if got := r.Alpha[1] > 0.5; got != c.wantCcache {
			t.Errorf("%s: rescaled α = (mem %.3f, cache %.3f), class wrong",
				c.name, r.Alpha[0], r.Alpha[1])
		}
	}
}

func TestCoRunValidation(t *testing.T) {
	llc := cache.Config{SizeBytes: 2 << 20, Ways: 8, BlockBytes: 64, HitLatency: 20}
	ws := []trace.Config{cWorkload(t), mWorkload(t)}
	if _, err := CoRun(nil, llc, 12.8, nil, 100); !errors.Is(err, ErrBadPlatform) {
		t.Error("no workloads accepted")
	}
	if _, err := CoRun(ws, llc, 12.8, [][2]float64{{6.4, 1 << 20}}, 100); !errors.Is(err, ErrBadPlatform) {
		t.Error("allocation count mismatch accepted")
	}
	if _, err := CoRun(ws, llc, 12.8, [][2]float64{{6.4, 1 << 20}, {0, 1 << 20}}, 100); !errors.Is(err, ErrBadPlatform) {
		t.Error("zero bandwidth share accepted")
	}
	if _, err := CoRun(ws, llc, 12.8, [][2]float64{{10, 1 << 20}, {10, 1 << 20}}, 100); !errors.Is(err, ErrBadPlatform) {
		t.Error("oversubscribed bandwidth accepted")
	}
}

func TestCoRunSharesMatter(t *testing.T) {
	// Giving the M workload more bandwidth must improve its IPC relative
	// to a starved allocation.
	llc := cache.Config{SizeBytes: 2 << 20, Ways: 8, BlockBytes: 64, HitLatency: 20}
	ws := []trace.Config{cWorkload(t), mWorkload(t)}
	starved, err := CoRun(ws, llc, 12.8, [][2]float64{{11.0, 1 << 20}, {1.8, 1 << 20}}, testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := CoRun(ws, llc, 12.8, [][2]float64{{1.8, 1 << 20}, {11.0, 1 << 20}}, testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	if fed.Agents[1].IPC() <= starved.Agents[1].IPC()*1.2 {
		t.Errorf("bandwidth share had little effect on M agent: %v vs %v",
			starved.Agents[1].IPC(), fed.Agents[1].IPC())
	}
}

func TestWeightedThroughputBounds(t *testing.T) {
	llc := cache.Config{SizeBytes: 2 << 20, Ways: 8, BlockBytes: 64, HitLatency: 20}
	ws := []trace.Config{cWorkload(t), mWorkload(t)}
	shared, err := CoRun(ws, llc, 12.8, [][2]float64{{6.4, 1 << 20}, {6.4, 1 << 20}}, testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	wt, err := WeightedThroughput(ws, llc, 12.8, shared, testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	// Each term is in (0, 1]; the sum for 2 agents in (0, 2].
	if wt <= 0 || wt > 2.001 {
		t.Errorf("weighted throughput = %v, want (0, 2]", wt)
	}
	if _, err := WeightedThroughput(ws, llc, 12.8, nil, testAccesses); !errors.Is(err, ErrBadPlatform) {
		t.Error("nil shared results accepted")
	}
}

func TestPrefetcherHelpsStreaming(t *testing.T) {
	// A pure streaming workload touches consecutive fresh blocks, the
	// best case for a next-line prefetcher: LLC hits rise and IPC with
	// them.
	// Moderate intensity so the 12.8 GB/s bus has headroom for the
	// doubled traffic; a prefetcher on a saturated bus only adds
	// queueing.
	w := trace.Config{
		Name: "stream", MemOpsPerKiloInstr: 15, WorkingSetBlocks: 65536,
		HotFraction: 0.7, ReuseTheta: 0.5, StreamFraction: 0.9,
		WriteFraction: 0.1, Seed: 77,
	}
	base := DefaultPlatform(512<<10, 12.8)
	off, err := Run(w, base, testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	base.Prefetch = true
	on, err := Run(w, base, testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	if on.LLCMissRate >= off.LLCMissRate {
		t.Errorf("prefetcher did not cut LLC misses: %v -> %v", off.LLCMissRate, on.LLCMissRate)
	}
	if on.IPC() <= off.IPC() {
		t.Errorf("prefetcher did not help streaming IPC: %v -> %v", off.IPC(), on.IPC())
	}
}

func TestDefaultPlatformGeometryFallback(t *testing.T) {
	// Off-ladder capacities get a valid, smaller associativity.
	p := DefaultPlatform(192<<10, 6.4)
	if err := p.LLC.Validate(); err != nil {
		t.Fatalf("192 KB geometry invalid: %v", err)
	}
	if p.LLC.Ways != 6 {
		t.Errorf("192 KB ways = %d, want 6", p.LLC.Ways)
	}
	// Table 1 ladder keeps 8 ways.
	if DefaultPlatform(1<<20, 6.4).LLC.Ways != 8 {
		t.Error("ladder size lost its 8-way geometry")
	}
}

func TestUnmanagedCoRunValidation(t *testing.T) {
	llc := cache.Config{SizeBytes: 2 << 20, Ways: 8, BlockBytes: 64, HitLatency: 20}
	if _, err := UnmanagedCoRun(nil, llc, 12.8, 100); !errors.Is(err, ErrBadPlatform) {
		t.Error("no workloads accepted")
	}
	if _, err := UnmanagedCoRun([]trace.Config{cWorkload(t)}, llc, 12.8, 0); !errors.Is(err, ErrBadPlatform) {
		t.Error("zero accesses accepted")
	}
	bad := llc
	bad.Ways = 3
	if _, err := UnmanagedCoRun([]trace.Config{cWorkload(t)}, bad, 12.8, 100); !errors.Is(err, ErrBadPlatform) {
		t.Error("bad LLC accepted")
	}
}

func TestUnmanagedSharingHurtsCacheFriendlyAgent(t *testing.T) {
	// The paper's premise: an unmanaged shared LLC lets a streaming
	// aggressor evict a cache-friendly agent's working set, while way
	// partitioning protects it.
	llc := cache.Config{SizeBytes: 2 << 20, Ways: 8, BlockBytes: 64, HitLatency: 20}
	ws := []trace.Config{cWorkload(t), mWorkload(t)}
	unmanaged, err := UnmanagedCoRun(ws, llc, 12.8, testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	// Enforced half/half split.
	managed, err := CoRun(ws, llc, 12.8, [][2]float64{{6.4, 1 << 20}, {6.4, 1 << 20}}, testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	uIPC := unmanaged.Agents[0].IPC()
	mIPC := managed.Agents[0].IPC()
	if uIPC >= mIPC {
		t.Errorf("cache-friendly agent: unmanaged IPC %v not below partitioned IPC %v", uIPC, mIPC)
	}
	// The victim must lose a meaningful fraction, not round-off.
	if uIPC > mIPC*0.95 {
		t.Errorf("interference too small to matter: %v vs %v", uIPC, mIPC)
	}
}

// TestUnmanagedCoRunPinned pins a three-agent unmanaged co-run bit for
// bit, as computed when each agent's warm-up was a per-address Access
// loop over its private L1 and the shared LLC. The closed-form warm-up
// must leave the shared LLC exactly as that agent-by-agent sequence did.
func TestUnmanagedCoRunPinned(t *testing.T) {
	var ws []trace.Config
	for _, name := range []string{"canneal", "blackscholes", "swaptions"} {
		w, err := trace.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w.Config)
	}
	llc := cache.Config{SizeBytes: 2 << 20, Ways: 8, BlockBytes: 64, HitLatency: 20}
	res, err := UnmanagedCoRun(ws, llc, 6.4, 3000)
	if err != nil {
		t.Fatal(err)
	}
	// IPC, L1 miss rate, LLC miss rate, mean memory latency per agent.
	want := [][4]uint64{
		{0x4007466e56eecbc8, 0x3fb22d0e56041893, 0x3fdd89d89d89d89e, 0x4058faaaaaaaaaab},
		{0x400eee5eed2a5717, 0x3f9374bc6a7ef9db, 0x3fdd89d89d89d89e, 0x4058faaaaaaaaaab},
		{0x400eb653628191f3, 0x3f9735ee402bb0d0, 0x3fdd89d89d89d89e, 0x4058faaaaaaaaaab},
	}
	for i, a := range res.Agents {
		got := [4]uint64{math.Float64bits(a.IPC()), math.Float64bits(a.L1MissRate),
			math.Float64bits(a.LLCMissRate), math.Float64bits(a.AvgMemLatency)}
		if got != want[i] {
			t.Errorf("agent %d: bits %#x, want %#x", i, got, want[i])
		}
	}
}
