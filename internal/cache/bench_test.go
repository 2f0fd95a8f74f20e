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

// BenchmarkCapLRUFill times a partition's life cycle under
// reconfiguration: fill an empty store to its capacity, shrink it to a
// quarter, grow it back and refill it, then invalidate it (a VC entering
// bypass). One op is the whole cycle; its allocs/op count the node array
// and index reallocations the growth and release policy costs.
func BenchmarkCapLRUFill(b *testing.B) {
	const capacity = 1 << 14
	rng := rand.New(rand.NewPCG(3, 4))
	lines := make([]addr.Line, 2*capacity)
	for i := range lines {
		lines[i] = 1<<36 + addr.Line(rng.Uint32())
	}
	c := NewCapLRU(capacity)
	b.ReportAllocs()
	for b.Loop() {
		for i, l := range lines[:capacity] {
			c.Access(l, i%4 == 0)
		}
		c.Resize(capacity / 4)
		c.Resize(capacity)
		for i, l := range lines[capacity:] {
			c.Access(l, i%4 == 0)
		}
		c.InvalidateAll()
	}
}

// BenchmarkSetAssocAccess times SetAssoc.Access on each array layout:
// lru8 is the private L2's 8-way LRU (recency-ordered sets), lruwide
// IdealSPD's 12-way private region (timestamped sets), and drrip a
// 16-way DRRIP bank. A seeded stream sends three accesses in four to a
// hot range of half the capacity and the rest to four times it, so the
// arrays run at a steady mix of hits and evicting misses; one op is one
// access (a quarter of them writes).
func BenchmarkSetAssocAccess(b *testing.B) {
	for _, g := range []struct {
		name  string
		bytes uint64
		ways  int
		kind  Repl
	}{
		{"lru8", 128 * addr.KB, 8, LRU},
		{"lruwide", 1536 * addr.KB, 12, LRU},
		{"drrip", 1024 * addr.KB, 16, DRRIP},
	} {
		b.Run(g.name, func(b *testing.B) {
			const n = 1 << 16
			capacity := int(g.bytes / addr.LineBytes)
			rng := rand.New(rand.NewPCG(7, 8))
			lines := make([]addr.Line, n)
			writes := make([]bool, n)
			for i := range lines {
				l := rng.IntN(4 * capacity)
				if rng.IntN(4) != 0 {
					l = rng.IntN(capacity / 2)
				}
				lines[i] = 1<<36 + addr.Line(l)
				writes[i] = rng.IntN(4) == 0
			}
			c := NewSetAssoc(g.bytes, g.ways, g.kind)
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
		})
	}
}
