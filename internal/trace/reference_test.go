package trace

import "math/rand"

// refGenerator is the original flat-array generator, kept as the
// differential reference for the recency stack. Its LRU stack is a slice
// with the most recent block at index 0, so every reuse copies up to d
// entries and every streaming access shifts the whole working set: O(W)
// per access. It builds its CDFs afresh, bypassing the shared memo.
type refGenerator struct {
	cfg             Config
	rng             *rand.Rand
	lru             []uint64
	nextFresh       uint64
	inBurst         int
	hotCDF, tailCDF []float64
	hotBlocks       int
	meanGap         float64
}

func newRefGenerator(cfg Config) *refGenerator {
	g := &refGenerator{
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
	if g.hotBlocks > 0 {
		g.hotCDF = powerCDF(g.hotBlocks, 1.2, 0)
	}
	if n > g.hotBlocks {
		g.tailCDF = powerCDF(n-g.hotBlocks, cfg.ReuseTheta, g.hotBlocks)
	}
	g.lru = make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		g.lru = append(g.lru, g.nextFresh*BlockSize)
		g.nextFresh++
	}
	if cfg.BurstLen > 0 {
		g.inBurst = cfg.BurstLen
	}
	return g
}

func (g *refGenerator) sampleDistance() int {
	if g.hotCDF != nil && (g.tailCDF == nil || g.rng.Float64() < g.cfg.HotFraction) {
		return searchCDF(g.hotCDF, g.rng.Float64())
	}
	if g.tailCDF == nil {
		return searchCDF(g.hotCDF, g.rng.Float64())
	}
	return g.hotBlocks + searchCDF(g.tailCDF, g.rng.Float64())
}

func (g *refGenerator) Next() Access {
	var addr uint64
	if g.rng.Float64() < g.cfg.StreamFraction {
		addr = g.nextFresh * BlockSize
		g.nextFresh++
		copy(g.lru[1:], g.lru[:len(g.lru)-1])
		g.lru[0] = addr
	} else {
		d := g.sampleDistance()
		addr = g.lru[d]
		copy(g.lru[1:d+1], g.lru[:d])
		g.lru[0] = addr
	}
	gap := g.gap()
	return Access{
		Addr:  addr,
		Write: g.rng.Float64() < g.cfg.WriteFraction,
		Gap:   gap,
	}
}

func (g *refGenerator) gap() int {
	if g.cfg.BurstLen > 0 {
		if g.inBurst > 0 {
			g.inBurst--
			return g.rng.Intn(2)
		}
		g.inBurst = g.cfg.BurstLen
		return g.cfg.BurstGap
	}
	if g.meanGap <= 0 {
		return 0
	}
	return int(g.rng.ExpFloat64() * g.meanGap)
}

func (g *refGenerator) WarmupAddrs() []uint64 {
	out := make([]uint64, len(g.lru))
	for i, a := range g.lru {
		out[len(g.lru)-1-i] = a
	}
	return out
}
