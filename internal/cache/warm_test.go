package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ref/internal/trace"
)

// warmGeometries are the simulator's L1 and the five LLC sizes of Table 1.
func warmGeometries() []Config {
	out := []Config{l1Config()}
	for _, size := range []int{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20} {
		out = append(out, Config{SizeBytes: size, Ways: 8, BlockBytes: 64, HitLatency: 20})
	}
	return out
}

// accessWarm is the warm-up Warm replaces: one clean access per address,
// then cleared statistics.
func accessWarm(c *Cache, addrs []uint64) {
	for _, a := range addrs {
		c.Access(a, false)
	}
	c.stats = Stats{}
}

// sameContents requires every set of got and want to hold the same lines
// with the same stamps (in any way order), and the same clock and stats.
func sameContents(t *testing.T, what string, got, want *Cache) {
	t.Helper()
	if got.clock != want.clock || got.stats != want.stats {
		t.Fatalf("%s: clock %d stats %+v, Access loop %d %+v", what, got.clock, got.stats, want.clock, want.stats)
	}
	ways := got.cfg.Ways
	byStamp := func(a, b line) int { return int(a.lru) - int(b.lru) }
	for s := 0; s < got.sets; s++ {
		g := slices.Clone(got.lines[s*ways : (s+1)*ways])
		w := slices.Clone(want.lines[s*ways : (s+1)*ways])
		slices.SortFunc(g, byStamp)
		slices.SortFunc(w, byStamp)
		if !slices.Equal(g, w) {
			t.Fatalf("%s: set %d holds %+v, Access loop %+v", what, s, g, w)
		}
	}
}

// randomAddrs draws n byte addresses from span blocks, so blocks repeat
// and addresses within a block differ.
func randomAddrs(rng *rand.Rand, n, span int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(rng.Intn(span))<<6 | uint64(rng.Intn(64))
	}
	return out
}

func TestWarmMatchesAccessLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wl, err := trace.Lookup("canneal")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(wl.Config)
	if err != nil {
		t.Fatal(err)
	}
	catalog := gen.WarmupAddrs()
	for _, cfg := range warmGeometries() {
		lines := cfg.SizeBytes / cfg.BlockBytes
		inputs := map[string][]uint64{
			"empty":            nil,
			"below lines":      randomAddrs(rng, lines/3, lines/2),
			"near lines":       randomAddrs(rng, lines, 2*lines),
			"far above lines":  randomAddrs(rng, 8*lines, 20*lines),
			"one set, repeats": randomAddrs(rng, 64, 1),
			"catalog working":  catalog,
		}
		for name, addrs := range inputs {
			what := fmt.Sprintf("%dKB/%d-way, %s (W=%d)", cfg.SizeBytes>>10, cfg.Ways, name, len(addrs))
			got, _ := New(cfg)
			want, _ := New(cfg)
			got.Warm(addrs)
			accessWarm(want, addrs)
			sameContents(t, what, got, want)
			// The same read/write stream must see the same cache.
			for k, a := range randomAddrs(rng, 4*lines, 4*lines) {
				write := rng.Intn(3) == 0
				if g, w := got.Access(a, write), want.Access(a, write); g != w {
					t.Fatalf("%s: access %d (%#x) = %+v, Access loop %+v", what, k, a, g, w)
				}
				if probe := uint64(rng.Intn(4*lines)) << 6; got.Contains(probe) != want.Contains(probe) {
					t.Fatalf("%s: Contains(%#x) differs after access %d", what, probe, k)
				}
			}
			if got.Stats() != want.Stats() {
				t.Fatalf("%s: stats %+v, Access loop %+v", what, got.Stats(), want.Stats())
			}
			if got.Flush() != want.Flush() {
				t.Fatalf("%s: flushed dirty counts differ", what)
			}
		}
	}
}

func TestWarmRejectsUsedCache(t *testing.T) {
	accessed, _ := New(l1Config())
	accessed.Access(0x40, false)
	warmed, _ := New(l1Config())
	warmed.Warm([]uint64{0x40})
	for name, c := range map[string]*Cache{"accessed": accessed, "warmed": warmed} {
		before := slices.Clone(c.lines)
		clock := c.clock
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s cache: Warm did not panic", name)
				}
			}()
			c.Warm([]uint64{0x80, 0xc0})
		}()
		if !slices.Equal(c.lines, before) || c.clock != clock {
			t.Errorf("%s cache: rejected Warm changed the cache", name)
		}
	}
}

// BenchmarkCacheWarm warms the L1 and the 2 MB LLC with the largest
// working set in the workload catalog, as sim.Run does before every grid
// point.
func BenchmarkCacheWarm(b *testing.B) {
	var largest trace.Workload
	for _, w := range trace.Catalog() {
		if w.Config.WorkingSetBlocks > largest.Config.WorkingSetBlocks {
			largest = w
		}
	}
	gen, err := trace.NewGenerator(largest.Config)
	if err != nil {
		b.Fatal(err)
	}
	addrs := gen.WarmupAddrs()
	for _, cfg := range []Config{l1Config(), {SizeBytes: 2 << 20, Ways: 8, BlockBytes: 64, HitLatency: 20}} {
		b.Run(fmt.Sprintf("%dKB/W=%d", cfg.SizeBytes>>10, len(addrs)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, _ := New(cfg)
				c.Warm(addrs)
			}
		})
	}
}
