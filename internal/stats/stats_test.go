package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRngDeterminism(t *testing.T) {
	a, b := NewRng(42), NewRng(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRngSeedsDiffer(t *testing.T) {
	a, b := NewRng(1), NewRng(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal outputs", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRng(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRng(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRng(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRng(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestZipfBoundsAndSkew(t *testing.T) {
	r := NewRng(13)
	const n = 1000
	counts := make([]int, n)
	for i := 0; i < 200000; i++ {
		v := r.Zipf(n, 0.9)
		if v < 0 || v >= n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Head should be much more popular than the tail.
	head, tail := 0, 0
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	for i := n - 10; i < n; i++ {
		tail += counts[i]
	}
	if head <= tail*3 {
		t.Fatalf("zipf not skewed: head=%d tail=%d", head, tail)
	}
}

func TestZipfDegenerate(t *testing.T) {
	r := NewRng(1)
	if v := r.Zipf(1, 0.9); v != 0 {
		t.Fatalf("Zipf(1) = %d, want 0", v)
	}
	if v := r.Zipf(0, 0.9); v != 0 {
		t.Fatalf("Zipf(0) = %d, want 0", v)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRng(5)
	p := make([]int, 100)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should flip ~half the output bits.
	totalFlips := 0
	const trials = 64
	for b := 0; b < trials; b++ {
		x := uint64(0xdeadbeefcafe)
		d := Hash64(x) ^ Hash64(x^(1<<uint(b)))
		totalFlips += popcount(d)
	}
	avg := float64(totalFlips) / trials
	if avg < 24 || avg > 40 {
		t.Fatalf("weak avalanche: avg %v flipped bits", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestGmean(t *testing.T) {
	g := Gmean([]float64{1, 4})
	if math.Abs(g-2) > 1e-12 {
		t.Fatalf("Gmean(1,4) = %v, want 2", g)
	}
	if Gmean(nil) != 0 {
		t.Fatal("Gmean(nil) should be 0")
	}
}

func TestGmeanPanicsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gmean([]float64{1, 0})
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if p := Percentile(xs, 50); p != 3 {
		t.Fatalf("P50 = %v, want 3", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("P0 = %v, want 1", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Fatalf("P100 = %v, want 5", p)
	}
}

func TestSortedDescending(t *testing.T) {
	in := []float64{3, 1, 2}
	out := SortedDescending(in)
	if out[0] != 3 || out[1] != 2 || out[2] != 1 {
		t.Fatalf("got %v", out)
	}
	if in[0] != 3 || in[1] != 1 {
		t.Fatal("input was modified")
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	r := NewRng(21)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGmeanOfEqualValues(t *testing.T) {
	r := NewRng(31)
	f := func(k uint8) bool {
		v := 0.5 + r.Float64()*10
		xs := make([]float64, int(k%10)+1)
		for i := range xs {
			xs[i] = v
		}
		return math.Abs(Gmean(xs)-v) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
