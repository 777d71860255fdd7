// Package trace generates synthetic memory-reference traces that stand in
// for the PARSEC, SPLASH-2x, and Phoenix benchmark regions the REF paper
// profiles with MARSSx86. A workload is parameterized by
//
//   - its memory intensity (memory operations per instruction),
//   - its temporal locality (a power-law reuse/stack-distance distribution
//     over a finite working set),
//   - its spatial behavior (a streaming fraction that touches fresh blocks),
//   - and its burstiness (alternating compute and memory-burst phases).
//
// These four knobs are sufficient to place a workload anywhere on the
// cache-sensitivity × bandwidth-sensitivity plane, which is all the REF
// mechanism consumes (the paper itself values "relative accuracy over
// absolute accuracy"). The Catalog in catalog.go tunes one parameter set
// per paper benchmark so that the fitted elasticities reproduce Figure 9's
// C/M classification.
package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"ref/internal/par"
)

// ErrBadConfig reports an invalid generator configuration.
var ErrBadConfig = errors.New("trace: bad config")

// BlockSize is the granularity of generated addresses in bytes, matching
// the 64-byte cache blocks of Table 1.
const BlockSize = 64

// Access is one memory reference.
type Access struct {
	// Addr is the byte address (block aligned).
	Addr uint64
	// Write marks store operations.
	Write bool
	// Gap is the number of non-memory instructions executed since the
	// previous memory reference.
	Gap int
}

// Config parameterizes a synthetic workload.
type Config struct {
	// Name labels the workload.
	Name string
	// MemOpsPerKiloInstr is the number of memory references per 1000
	// instructions (memory intensity). Typical range 50–400.
	MemOpsPerKiloInstr int
	// WorkingSetBlocks is the number of distinct 64-byte blocks in the hot
	// working set. Locality is generated over this set.
	WorkingSetBlocks int
	// HotFraction is the probability a reference reuses the hot inner set
	// of HotBlocks most-recent blocks (register/L1-resident locality).
	// Real workloads keep L1 hit rates above ~90%; this knob sets that
	// directly. Zero disables the hot set.
	HotFraction float64
	// HotBlocks is the size of the hot inner set (default 256 blocks =
	// 16 KB when zero).
	HotBlocks int
	// ReuseTheta shapes the power-law stack-distance distribution of the
	// *tail* references that escape the hot set:
	// P(distance = d) ∝ 1/(d+1)^ReuseTheta over [HotBlocks,
	// WorkingSetBlocks). Smaller θ spreads reuse across larger distances,
	// making LLC capacity matter across the whole sweep. Typical range
	// 0.3 (spread) – 2.5 (tight).
	ReuseTheta float64
	// StreamFraction is the probability a reference touches a brand-new
	// block (streaming/compulsory behavior) instead of reusing the
	// working set. Streaming workloads defeat caches and demand
	// bandwidth.
	StreamFraction float64
	// BurstLen and BurstGap model bursty memory phases: after BurstLen
	// consecutive references with small gaps, the generator inserts a
	// compute phase of BurstGap instructions. Zero disables bursts.
	BurstLen, BurstGap int
	// WriteFraction is the probability a reference is a store.
	WriteFraction float64
	// Seed makes the trace reproducible.
	Seed int64
}

// Validate checks generator parameters.
func (c *Config) Validate() error {
	if c.MemOpsPerKiloInstr <= 0 || c.MemOpsPerKiloInstr > 1000 {
		return fmt.Errorf("%w: MemOpsPerKiloInstr = %d", ErrBadConfig, c.MemOpsPerKiloInstr)
	}
	// The recency stack counts its ~1.5W timeline slots in int32.
	if c.WorkingSetBlocks <= 0 || c.WorkingSetBlocks > math.MaxInt32/2 {
		return fmt.Errorf("%w: WorkingSetBlocks = %d", ErrBadConfig, c.WorkingSetBlocks)
	}
	if c.ReuseTheta <= 0 || math.IsNaN(c.ReuseTheta) {
		return fmt.Errorf("%w: ReuseTheta = %v", ErrBadConfig, c.ReuseTheta)
	}
	if c.StreamFraction < 0 || c.StreamFraction > 1 {
		return fmt.Errorf("%w: StreamFraction = %v", ErrBadConfig, c.StreamFraction)
	}
	if c.HotFraction < 0 || c.HotFraction > 1 {
		return fmt.Errorf("%w: HotFraction = %v", ErrBadConfig, c.HotFraction)
	}
	if c.HotBlocks < 0 || c.HotBlocks > c.WorkingSetBlocks {
		return fmt.Errorf("%w: HotBlocks = %d with working set %d", ErrBadConfig, c.HotBlocks, c.WorkingSetBlocks)
	}
	if c.WriteFraction < 0 || c.WriteFraction > 1 {
		return fmt.Errorf("%w: WriteFraction = %v", ErrBadConfig, c.WriteFraction)
	}
	if c.BurstLen < 0 || c.BurstGap < 0 {
		return fmt.Errorf("%w: negative burst parameters", ErrBadConfig)
	}
	return nil
}

// Generator produces a reproducible access stream for one workload.
type Generator struct {
	cfg Config
	rng *rand.Rand
	// stack holds the working set ordered by recency; depth 0 is the most
	// recently used block. Reaching any depth costs O(log W).
	stack *recency
	// nextFresh is the next never-before-used block address.
	nextFresh uint64
	// inBurst counts references remaining in the current burst.
	inBurst int
	// hotCDF is the stack-distance CDF of hot-set references
	// [0, hotBlocks); tailCDF covers [hotBlocks, WorkingSetBlocks). Both
	// are shared read-only with other generators (see sharedPowerCDF).
	hotCDF, tailCDF []float64
	hotBlocks       int
	// meanGap is the average instruction gap implied by memory intensity.
	meanGap float64
}

// NewGenerator validates cfg and builds a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		meanGap: 1000/float64(cfg.MemOpsPerKiloInstr) - 1,
	}
	n := cfg.WorkingSetBlocks
	g.hotBlocks = cfg.HotBlocks
	if g.hotBlocks == 0 && cfg.HotFraction > 0 {
		g.hotBlocks = 256
		if g.hotBlocks > n {
			g.hotBlocks = n
		}
	}
	// Hot-set CDF: a fixed tight power law over [0, hotBlocks) capturing
	// register/L1-class locality.
	if g.hotBlocks > 0 {
		g.hotCDF = sharedPowerCDF(g.hotBlocks, 1.2, 0)
	}
	// Tail CDF: the configured power law over [hotBlocks, n).
	if n > g.hotBlocks {
		g.tailCDF = sharedPowerCDF(n-g.hotBlocks, cfg.ReuseTheta, g.hotBlocks)
	}
	// Seed the working set with sequential blocks, block 0 most recent.
	g.stack = newRecency(n)
	g.nextFresh = uint64(n)
	if cfg.BurstLen > 0 {
		g.inBurst = cfg.BurstLen
	}
	return g, nil
}

// cdfKey identifies one powerCDF table.
type cdfKey struct {
	n      int
	theta  float64
	offset int
}

type cdfEntry struct {
	key cdfKey
	cdf []float64
}

// cdfMemo holds the most recently used powerCDF tables, most recent first.
// A profiling sweep worker builds one generator per grid point from the
// same config, one after another, so one table per worker of the default
// pool width plus the shared hot-set table catches the repeats without
// pinning the whole catalog's tables (about 12 MB) in memory. A sweep
// wider than the default misses more often, and a miss costs one
// powerCDF build, as it would without the memo.
var cdfMemo struct {
	sync.Mutex
	entries []cdfEntry
}

// sharedPowerCDF returns powerCDF(n, theta, offset), reusing a recently
// built table. Callers must not modify the result.
func sharedPowerCDF(n int, theta float64, offset int) []float64 {
	key := cdfKey{n, theta, offset}
	cdfMemo.Lock()
	cdf := recallCDF(key)
	cdfMemo.Unlock()
	if cdf != nil {
		return cdf
	}
	// Build outside the lock, so that sweep workers missing on different
	// tables build them in parallel.
	cdf = powerCDF(n, theta, offset)
	cdfMemo.Lock()
	defer cdfMemo.Unlock()
	if prev := recallCDF(key); prev != nil {
		return prev
	}
	if limit := par.Default() + 1; len(cdfMemo.entries) >= limit {
		cdfMemo.entries = cdfMemo.entries[:limit-1]
	}
	cdfMemo.entries = append([]cdfEntry{{key, cdf}}, cdfMemo.entries...)
	return cdf
}

// recallCDF returns the memoised table for key, moving it to the front, or
// nil. The caller holds cdfMemo's lock.
func recallCDF(key cdfKey) []float64 {
	for i, e := range cdfMemo.entries {
		if e.key == key {
			copy(cdfMemo.entries[1:i+1], cdfMemo.entries[:i])
			cdfMemo.entries[0] = e
			return e.cdf
		}
	}
	return nil
}

// powerCDF builds a normalized CDF of P(d) ∝ 1/(d+offset+1)^theta for
// d in [0, n).
func powerCDF(n int, theta float64, offset int) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for d := 0; d < n; d++ {
		sum += 1 / math.Pow(float64(d+offset+1), theta)
		cdf[d] = sum
	}
	for d := range cdf {
		cdf[d] /= sum
	}
	return cdf
}

// searchCDF returns the smallest index whose CDF value is ≥ u.
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sampleDistance draws a stack distance: hot-set references stay within
// the inner HotBlocks; tail references land in [HotBlocks,
// WorkingSetBlocks).
func (g *Generator) sampleDistance() int {
	if g.hotCDF != nil && (g.tailCDF == nil || g.rng.Float64() < g.cfg.HotFraction) {
		return searchCDF(g.hotCDF, g.rng.Float64())
	}
	if g.tailCDF == nil {
		return searchCDF(g.hotCDF, g.rng.Float64())
	}
	return g.hotBlocks + searchCDF(g.tailCDF, g.rng.Float64())
}

// Next returns the next access in the stream.
func (g *Generator) Next() Access {
	var addr uint64
	if g.rng.Float64() < g.cfg.StreamFraction {
		// Touch a fresh block and install it as most recent, evicting the
		// coldest block from the hot set so the set size stays fixed.
		addr = g.nextFresh * BlockSize
		g.nextFresh++
		g.stack.stream(addr)
	} else {
		addr = g.stack.touch(g.sampleDistance())
	}
	gap := g.gap()
	return Access{
		Addr:  addr,
		Write: g.rng.Float64() < g.cfg.WriteFraction,
		Gap:   gap,
	}
}

// gap produces the instruction gap before this access, honoring bursts.
func (g *Generator) gap() int {
	if g.cfg.BurstLen > 0 {
		if g.inBurst > 0 {
			g.inBurst--
			// Inside a burst, references are nearly back to back.
			return g.rng.Intn(2)
		}
		g.inBurst = g.cfg.BurstLen
		return g.cfg.BurstGap
	}
	// Geometric-ish gap with the configured mean.
	if g.meanGap <= 0 {
		return 0
	}
	return int(g.rng.ExpFloat64() * g.meanGap)
}

// WarmupAddrs returns the current working set ordered coldest-first (the
// deepest LRU position first). Simulators access these once, in order,
// before measurement so that the cache hierarchy starts in the steady
// state the reuse distribution assumes: every block in the set has been
// touched, and the most recently touched blocks are the shallow ones.
// Without this, short measured runs see compulsory misses for every deep
// reuse and cache capacity appears worthless.
func (g *Generator) WarmupAddrs() []uint64 {
	return g.stack.coldestFirst()
}

// Generate produces n accesses.
func (g *Generator) Generate(n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
