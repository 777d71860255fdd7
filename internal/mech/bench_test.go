package mech

import (
	"fmt"
	"math/rand"
	"testing"

	"ref/internal/cobb"
	"ref/internal/core"
)

// BenchmarkMechanismSolve times one allocation by each iteratively solved
// mechanism of Figures 13–14 at the default solver budget, on random
// two-resource economies of 4 and 8 agents.
func BenchmarkMechanismSolve(b *testing.B) {
	mechs := []struct {
		name string
		m    Mechanism
	}{
		{"maxwelfair", MaxWelfareFair{}},
		{"egalfair", EgalitarianFair{}},
		{"equalslow", EqualSlowdown{}},
	}
	for _, mc := range mechs {
		for _, n := range []int{4, 8} {
			rng := rand.New(rand.NewSource(int64(n)))
			agents := make([]core.Agent, n)
			for i := range agents {
				a := 0.1 + 0.8*rng.Float64()
				agents[i] = core.Agent{Name: fmt.Sprint("a", i), Utility: cobb.MustNew(1, a, 1-a)}
			}
			b.Run(fmt.Sprintf("%s/n=%d", mc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := mc.m.Allocate(agents, paperCap); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
