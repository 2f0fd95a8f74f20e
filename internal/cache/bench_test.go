package cache

import (
	"math/rand/v2"
	"testing"

	"whirlpool/internal/addr"
)

// BenchmarkCapLRUAccess replays a seeded stream over a working set of
// twice the capacity, so hits, misses and evictions all occur; one op is
// one access (a quarter of them writes).
func BenchmarkCapLRUAccess(b *testing.B) {
	const capacity, n = 1 << 14, 1 << 16
	rng := rand.New(rand.NewPCG(1, 2))
	lines := make([]addr.Line, n)
	writes := make([]bool, n)
	for i := range lines {
		lines[i] = 1<<36 + addr.Line(rng.IntN(2*capacity))
		writes[i] = rng.IntN(4) == 0
	}
	c := NewCapLRU(capacity)
	for i := range lines { // reach steady state before timing
		c.Access(lines[i], writes[i])
	}
	c.Hits, c.Misses = 0, 0
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		c.Access(lines[i], writes[i])
		i = (i + 1) % n
	}
	b.ReportMetric(float64(c.Hits)/float64(c.Hits+c.Misses), "hit-ratio")
}
