package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// figureBudget is the per-simulation access budget the committed figure
// goldens are generated at.
const figureBudget = 6000

// diffGenerators runs the generator and the flat-array reference side by
// side for n accesses, and on until the recency stack has compacted its
// timeline minCompactions times, requiring identical access streams and
// identical warmup orders before and after.
func diffGenerators(t *testing.T, cfg Config, n, minCompactions int) {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefGenerator(cfg)
	sameWarmup(t, "initial", g.WarmupAddrs(), ref.WarmupAddrs())
	now, compactions := g.stack.now, 0
	for i := 0; i < n || compactions < minCompactions; i++ {
		if i == 1000*n {
			t.Fatalf("only %d compactions after %d accesses", compactions, i)
		}
		got, want := g.Next(), ref.Next()
		if got != want {
			t.Fatalf("access %d: got %+v, want %+v", i, got, want)
		}
		if g.stack.now < now {
			compactions++
		}
		now = g.stack.now
	}
	sameWarmup(t, "final", g.WarmupAddrs(), ref.WarmupAddrs())
}

func sameWarmup(t *testing.T, when string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s warmup has %d blocks, want %d", when, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s warmup[%d] = %#x, want %#x", when, i, got[i], want[i])
		}
	}
}

// TestGeneratorMatchesReference pins every catalog workload's stream, at
// the catalog seed and derived ones, to the flat-array generator through
// the figure budget.
func TestGeneratorMatchesReference(t *testing.T) {
	seeds := 3
	if !testing.Short() {
		seeds = 5
	}
	for _, w := range Catalog() {
		for s := 0; s < seeds; s++ {
			cfg := w.Config
			if s > 0 {
				cfg.Seed = DeriveSeed(cfg.Seed, "differential", fmt.Sprint(s))
			}
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, s), func(t *testing.T) {
				diffGenerators(t, cfg, figureBudget, 0)
			})
		}
	}
}

// TestGeneratorCompactionStress runs small working sets through at least
// 50 timeline compactions each, with and without streaming and hot sets.
func TestGeneratorCompactionStress(t *testing.T) {
	for _, ws := range []int{64, 100, 257, 512} {
		for _, stream := range []float64{0, 0.3} {
			for _, hot := range []float64{0, 0.9} {
				cfg := Config{
					Name:               "stress",
					MemOpsPerKiloInstr: 250,
					WorkingSetBlocks:   ws,
					HotFraction:        hot,
					HotBlocks:          ws / 8,
					ReuseTheta:         0.7,
					StreamFraction:     stream,
					BurstLen:           8,
					BurstGap:           40,
					WriteFraction:      0.3,
					Seed:               int64(ws),
				}
				t.Run(fmt.Sprintf("ws%d/stream%v/hot%v", ws, stream, hot), func(t *testing.T) {
					diffGenerators(t, cfg, 100*ws, 50)
				})
			}
		}
	}
}

// TestRecencyMatchesSlice drives the stack directly with uniformly random
// depths, which reach the deep end far more often than the power-law
// distances do, against a move-to-front slice.
func TestRecencyMatchesSlice(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 300} {
		rng := rand.New(rand.NewSource(int64(n)))
		r := newRecency(n)
		want := make([]uint64, n)
		for i := range want {
			want[i] = uint64(i) * BlockSize
		}
		fresh := uint64(n)
		for step := 0; step < 200*n+100; step++ {
			if rng.Intn(4) == 0 {
				a := fresh * BlockSize
				fresh++
				r.stream(a)
				copy(want[1:], want[:n-1])
				want[0] = a
			} else {
				d := rng.Intn(n)
				got := r.touch(d)
				if got != want[d] {
					t.Fatalf("n=%d step %d: touch(%d) = %#x, want %#x", n, step, d, got, want[d])
				}
				copy(want[1:d+1], want[:d])
				want[0] = got
			}
		}
		cold := r.coldestFirst()
		for i := range cold {
			if cold[i] != want[n-1-i] {
				t.Fatalf("n=%d: coldestFirst[%d] = %#x, want %#x", n, i, cold[i], want[n-1-i])
			}
		}
	}
}

// TestSharedPowerCDFMatchesFresh builds generators from several goroutines
// at once, as the parallel profiling sweeps do, with more distinct tables
// than the memo keeps, and requires every shared table to equal a fresh
// build.
func TestSharedPowerCDFMatchesFresh(t *testing.T) {
	keys := []cdfKey{{256, 1.2, 0}, {4096 - 256, 0.8, 256}, {1000, 0.5, 0}, {3000, 0.45, 64}}
	for i := 0; i < 8; i++ {
		keys = append(keys, cdfKey{500 + i, 0.9, i})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range keys {
					k := keys[(i+w)%len(keys)]
					got, want := sharedPowerCDF(k.n, k.theta, k.offset), powerCDF(k.n, k.theta, k.offset)
					if !slices.Equal(got, want) {
						t.Errorf("%+v: shared table differs from a fresh build", k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// generatorBenchWorkloads are a small-W class-C workload and the largest
// streaming class-M one.
var generatorBenchWorkloads = []string{"blackscholes", "ocean_cp"}

// Benchmark results land here so the compiler cannot drop the calls.
var (
	benchAccess    Access
	benchGenerator *Generator
)

func BenchmarkGeneratorNext(b *testing.B) {
	for _, name := range generatorBenchWorkloads {
		w, err := Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			g, err := NewGenerator(w.Config)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchAccess = g.Next()
			}
		})
	}
}

func BenchmarkNewGenerator(b *testing.B) {
	for _, name := range generatorBenchWorkloads {
		w, err := Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if benchGenerator, err = NewGenerator(w.Config); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
