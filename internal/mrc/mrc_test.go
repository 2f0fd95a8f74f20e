package mrc

import (
	"math"
	"testing"
	"testing/quick"

	"whirlpool/internal/addr"
)

func TestProfilerExactDistances(t *testing.T) {
	// Stream: A B C A  — A's reuse distance is 2 (B, C touched since).
	p := NewProfiler(1, 8, 0)
	for _, l := range []addr.Line{1, 2, 3, 1} {
		p.Access(l)
	}
	c := p.Curve()
	// 4 accesses: 3 cold + 1 reuse at distance 2.
	// Misses at capacity >= 3 lines: only the 3 cold misses.
	if c.M[0] != 4 {
		t.Fatalf("M[0] = %v, want 4 (everything misses at size 0)", c.M[0])
	}
	if c.M[2] != 4 {
		t.Fatalf("M[2] = %v, want 4 (dist 2 still misses at cap 2)", c.M[2])
	}
	if c.M[3] != 3 {
		t.Fatalf("M[3] = %v, want 3 (A hits at cap 3)", c.M[3])
	}
}

func TestProfilerImmediateReuse(t *testing.T) {
	p := NewProfiler(1, 4, 0)
	p.Access(addr.Line(9))
	p.Access(addr.Line(9))
	c := p.Curve()
	// Distance 0: hits at any capacity >= 1.
	if c.M[1] != 1 {
		t.Fatalf("M[1] = %v, want 1 (only the cold miss)", c.M[1])
	}
}

func TestProfilerCurveMonotone(t *testing.T) {
	p := NewProfiler(4, 32, 0)
	for i := 0; i < 5000; i++ {
		p.Access(addr.Line(i*7919%300) + 1000)
	}
	c := p.Curve()
	for i := 1; i < len(c.M); i++ {
		if c.M[i] > c.M[i-1]+1e-9 {
			t.Fatalf("curve not monotone at %d: %v > %v", i, c.M[i], c.M[i-1])
		}
	}
}

func TestProfilerCompaction(t *testing.T) {
	// Force many accesses so the BIT rebuilds several times.
	p := NewProfiler(16, 64, 0)
	const lines = 500
	for i := 0; i < 300000; i++ {
		p.Access(addr.Line(i % lines))
	}
	c := p.Curve()
	// A cyclic scan over 500 lines: at capacity >= 500 lines, only the
	// 500 cold misses remain, however many compactions ran.
	if atFull := c.At(512); atFull != 500 {
		t.Fatalf("misses at full capacity = %v, want 500 cold", atFull)
	}
	// At tiny capacity everything misses.
	if c.M[0] != 300000 {
		t.Fatalf("M[0] = %v, want 300000", c.M[0])
	}
}

func TestProfilerWorkingSetKnee(t *testing.T) {
	// Loop over a 64-line working set: the curve must drop (near) to cold
	// misses exactly at 64 lines.
	p := NewProfiler(8, 32, 0)
	for pass := 0; pass < 100; pass++ {
		for i := 0; i < 64; i++ {
			p.Access(addr.Line(i))
		}
	}
	c := p.Curve()
	below := c.At(56) // below the knee: scans miss
	above := c.At(72) // above the knee: everything hits
	if above > 70 {
		t.Fatalf("misses above knee = %v, want ~64 cold misses", above)
	}
	if below < 1000 {
		t.Fatalf("misses below knee = %v, want thrashing", below)
	}
}

func TestSampledProfilerApproximatesExact(t *testing.T) {
	gen := func(shift uint) Curve {
		p := NewProfiler(64, 64, shift)
		// Mixture: hot zipf-ish head + scan.
		for i := 0; i < 400000; i++ {
			var l addr.Line
			if i%2 == 0 {
				l = addr.Line(i % 512)
			} else {
				l = addr.Line(10000 + i%3000)
			}
			p.Access(l)
		}
		return p.Curve()
	}
	exact := gen(0)
	sampled := gen(3) // 1/8 sampling
	// Compare shapes: relative area difference under 20%.
	var area, diff float64
	for i := range exact.M {
		area += exact.M[i]
		diff += math.Abs(exact.M[i] - sampled.M[i])
	}
	if diff/area > 0.20 {
		t.Fatalf("sampled curve deviates %.1f%% from exact", 100*diff/area)
	}
}

func TestCurveAtInterpolation(t *testing.T) {
	c := Curve{Gran: 10, M: []float64{100, 50, 0}, Accesses: 100}
	if v := c.At(0); v != 100 {
		t.Fatalf("At(0) = %v", v)
	}
	if v := c.At(5); v != 75 {
		t.Fatalf("At(5) = %v, want 75", v)
	}
	if v := c.At(25); v != 0 {
		t.Fatalf("At(25) = %v, want clamp to 0", v)
	}
}

func TestConvexHullBelowCurve(t *testing.T) {
	c := Curve{Gran: 1, M: []float64{100, 90, 20, 15, 10, 9, 8}, Accesses: 100}
	h := c.ConvexHull()
	for i := range c.M {
		if h.M[i] > c.M[i]+1e-9 {
			t.Fatalf("hull above curve at %d: %v > %v", i, h.M[i], c.M[i])
		}
	}
	// Hull must be convex: differences non-decreasing.
	for i := 2; i < len(h.M); i++ {
		d1 := h.M[i-1] - h.M[i-2]
		d2 := h.M[i] - h.M[i-1]
		if d2 < d1-1e-9 {
			t.Fatalf("hull not convex at %d", i)
		}
	}
	// Endpoints preserved.
	if h.M[0] != c.M[0] || h.M[len(h.M)-1] != c.M[len(c.M)-1] {
		t.Fatal("hull endpoints must match curve")
	}
}

func TestConvexHullOfConvexCurveIsIdentity(t *testing.T) {
	c := Curve{Gran: 1, M: []float64{100, 60, 30, 15, 8, 5, 4}, Accesses: 100}
	h := c.ConvexHull()
	if areaDiff(c, h) > 1e-9 {
		t.Fatalf("hull changed an already-convex curve by %v", areaDiff(c, h))
	}
}

// Appendix B, Fig 23b: combining two halves of the same access pattern
// must reproduce a scaled version of the original curve.
func TestCombineSelfSimilar(t *testing.T) {
	// m(s) = 100 * 2^-s, a smooth convex curve.
	n := 16
	m := make([]float64, n+1)
	for i := range m {
		m[i] = 100 * math.Pow(2, -float64(i)/3)
	}
	a := Curve{Gran: 4, M: m, Accesses: 100}
	comb := Combine(a, a)
	// comb at size 2s should equal 2*a at size s.
	for i := 0; i <= n; i++ {
		want := 2 * a.M[i]
		got := comb.M[2*i]
		if math.Abs(got-want) > 0.05*want+1e-9 {
			t.Fatalf("self-combine at %d: got %v want %v", 2*i, got, want)
		}
	}
}

func TestCombineCommutative(t *testing.T) {
	a := Curve{Gran: 2, M: []float64{100, 40, 10, 5, 2}, Accesses: 100}
	b := Curve{Gran: 2, M: []float64{50, 45, 40, 35, 30}, Accesses: 50}
	ab := Combine(a, b)
	ba := Combine(b, a)
	if areaDiff(ab, ba) > 1e-6 {
		t.Fatalf("Combine not commutative: diff %v", areaDiff(ab, ba))
	}
}

func TestCombinePreservesEndpoints(t *testing.T) {
	a := Curve{Gran: 2, M: []float64{100, 10, 1}, Accesses: 100}
	b := Curve{Gran: 2, M: []float64{60, 30, 20}, Accesses: 60}
	c := Combine(a, b)
	if math.Abs(c.M[0]-160) > 1e-9 {
		t.Fatalf("combined M[0] = %v, want 160", c.M[0])
	}
	// The flow model advances read heads proportionally to miss flow, so
	// the tail lands near — but not exactly at — the sum of the pools'
	// full-size misses (the model is approximate by design).
	last := c.M[len(c.M)-1]
	if last < 21-1e-9 || last > 48 {
		t.Fatalf("combined tail = %v, want in [21, 48]", last)
	}
	if c.Accesses != 160 {
		t.Fatalf("combined accesses = %v", c.Accesses)
	}
}

func TestCombineInsensitiveToInfrequentPool(t *testing.T) {
	a := Curve{Gran: 1, M: []float64{1000, 400, 100, 20, 5, 1, 0, 0, 0}, Accesses: 1000}
	tiny := Curve{Gran: 1, M: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}, Accesses: 1}
	c := Combine(a, tiny)
	// The combined curve over a's domain should be close to a.
	for i := 0; i < len(a.M); i++ {
		if math.Abs(c.M[i]-a.M[i]) > 0.1*a.M[0] {
			t.Fatalf("tiny pool distorted curve at %d: %v vs %v", i, c.M[i], a.M[i])
		}
	}
}

func TestPartitionBeatsCombine(t *testing.T) {
	// A cache-friendly pool and a streaming pool: partitioning must not
	// be worse than combining anywhere (Fig 15's right side).
	friendly := Curve{Gran: 1, M: []float64{100, 40, 10, 2, 0, 0, 0, 0, 0}, Accesses: 100}
	stream := Curve{Gran: 1, M: []float64{100, 99, 98, 97, 96, 95, 94, 93, 92}, Accesses: 100}
	comb := Combine(friendly, stream)
	part := Partition(friendly, stream)
	for i := range part.M {
		if part.M[i] > comb.M[i]+1e-6 {
			t.Fatalf("partitioned worse than combined at %d: %v > %v", i, part.M[i], comb.M[i])
		}
	}
}

func TestPartitionOptimalAtFullSize(t *testing.T) {
	a := Curve{Gran: 1, M: []float64{10, 6, 3, 1}, Accesses: 10}
	b := Curve{Gran: 1, M: []float64{20, 12, 4, 2}, Accesses: 20}
	p := Partition(a, b)
	// At combined full size both pools are at their full size.
	want := a.M[3] + b.M[3]
	got := p.M[len(p.M)-1]
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("partition tail = %v, want %v", got, want)
	}
	// Exhaustive check at every size against brute force over hulls.
	ha, hb := a.ConvexHull(), b.ConvexHull()
	for s := 0; s < len(p.M); s++ {
		best := math.Inf(1)
		for x := 0; x <= s; x++ {
			y := s - x
			if x >= len(ha.M) || y >= len(hb.M) {
				continue
			}
			if v := ha.M[x] + hb.M[y]; v < best {
				best = v
			}
		}
		if math.Abs(p.M[s]-best) > 1e-9 {
			t.Fatalf("partition suboptimal at %d: %v vs %v", s, p.M[s], best)
		}
	}
}

func TestDistanceSimilarVsDissimilar(t *testing.T) {
	// Fig 15: combining two cache-friendly pools costs little; combining
	// a friendly pool with a streaming pool costs a lot.
	m1 := Curve{Gran: 1, M: []float64{100, 30, 5, 0, 0, 0, 0, 0, 0}, Accesses: 100}
	m2 := Curve{Gran: 1, M: []float64{90, 35, 8, 1, 0, 0, 0, 0, 0}, Accesses: 90}
	m3 := Curve{Gran: 1, M: []float64{100, 98, 96, 94, 92, 90, 88, 86, 84}, Accesses: 100}
	dSimilar := Distance(m1, m2)
	dDissimilar := Distance(m1, m3)
	if dDissimilar <= dSimilar {
		t.Fatalf("distance(friendly,streaming)=%v should exceed distance(friendly,friendly)=%v",
			dDissimilar, dSimilar)
	}
}

func TestDistanceNonNegative(t *testing.T) {
	a := Curve{Gran: 1, M: []float64{5, 4, 3, 2}, Accesses: 5}
	b := Curve{Gran: 1, M: []float64{7, 1, 0, 0}, Accesses: 7}
	if d := Distance(a, b); d < 0 {
		t.Fatalf("negative distance %v", d)
	}
}

func TestMonotonize(t *testing.T) {
	c := Curve{Gran: 1, M: []float64{10, 12, 5, 7}, Accesses: 12}
	c.Monotonize()
	for i := 1; i < len(c.M); i++ {
		if c.M[i] > c.M[i-1] {
			t.Fatalf("still non-monotone at %d", i)
		}
	}
}

// Property: Combine output is monotone non-increasing for monotone inputs.
func TestQuickCombineMonotone(t *testing.T) {
	f := func(seedA, seedB [6]uint8) bool {
		mk := func(seed [6]uint8) Curve {
			m := make([]float64, 7)
			m[0] = 200
			for i := 1; i < 7; i++ {
				m[i] = m[i-1] - float64(seed[i-1])/255*m[i-1]
			}
			return Curve{Gran: 1, M: m, Accesses: 200}
		}
		c := Combine(mk(seedA), mk(seedB))
		for i := 1; i < len(c.M); i++ {
			if c.M[i] > c.M[i-1]+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Partition never exceeds either pool alone plus the other at
// zero (achievable splits bound it).
func TestQuickPartitionBounds(t *testing.T) {
	f := func(seedA, seedB [6]uint8) bool {
		mk := func(seed [6]uint8) Curve {
			m := make([]float64, 7)
			m[0] = 100
			for i := 1; i < 7; i++ {
				m[i] = m[i-1] * (1 - float64(seed[i-1])/512)
			}
			return Curve{Gran: 1, M: m, Accesses: 100}
		}
		a, b := mk(seedA), mk(seedB)
		p := Partition(a, b)
		ha, hb := a.ConvexHull(), b.ConvexHull()
		for s := 0; s < len(p.M); s++ {
			// Split (min(s, lenA), rest) is achievable.
			x := s
			if x > ha.Buckets() {
				x = ha.Buckets()
			}
			y := s - x
			if y > hb.Buckets() {
				y = hb.Buckets()
			}
			if p.M[s] > ha.M[x]+hb.M[y]+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// areaDiff integrates |a-b| over the two curves' common domain.
func areaDiff(a, b Curve) float64 {
	n := min(len(a.M), len(b.M))
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Abs(a.M[i] - b.M[i])
	}
	return sum
}
