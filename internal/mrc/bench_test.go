package mrc

import (
	"math/rand/v2"
	"testing"

	"whirlpool/internal/addr"
)

// BenchmarkProfilerAccess replays a seeded stream in steady state: half
// of it reuses a hot set of a quarter of the curve domain, half spreads
// over four times the domain, so in-domain distances, distances past the
// domain and compactions all occur (the sampled profiler also forgets
// lines). One op is one access.
func BenchmarkProfilerAccess(b *testing.B) {
	for _, bc := range []struct {
		name  string
		shift uint
	}{{"exact", 0}, {"sampled", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			const gran, buckets, n = 64, 256, 1 << 16
			const domain = gran * buckets
			rng := rand.New(rand.NewPCG(1, 2))
			lines := make([]addr.Line, n)
			for i := range lines {
				if i%2 == 0 {
					lines[i] = 1<<36 + addr.Line(rng.IntN(domain/4))
				} else {
					lines[i] = 1<<37 + addr.Line(rng.IntN(4*domain))
				}
			}
			p := NewProfiler(gran, buckets, bc.shift)
			for range 4 { // reach steady state before timing
				for _, l := range lines {
					p.Access(l)
				}
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				p.Access(lines[i])
				i = (i + 1) % n
			}
		})
	}
}
