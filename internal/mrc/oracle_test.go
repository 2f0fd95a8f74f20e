package mrc

import (
	"math/rand/v2"
	"slices"
	"testing"

	"whirlpool/internal/addr"
	"whirlpool/internal/stats"
)

// refStack is a deliberately naive stack-distance profiler: the sampled
// lines in a slice, MRU first, searched linearly and never pruned. It
// shares no state code with Profiler (only the sampling hash), so the two
// agreeing is evidence that the Fenwick tree, the intrusive index and
// compaction are right.
type refStack struct {
	gran    uint64
	buckets int
	shift   uint
	stack   []addr.Line
	histo   []uint64
	tail    uint64 // cold accesses and distances past the domain
	acc     uint64
}

func newRefStack(gran uint64, buckets int, shift uint) *refStack {
	return &refStack{gran: gran, buckets: buckets, shift: shift, histo: make([]uint64, buckets)}
}

func (r *refStack) access(l addr.Line) {
	r.acc++
	if stats.Hash64(uint64(l))&(1<<r.shift-1) != 0 {
		return
	}
	i := slices.Index(r.stack, l)
	if i < 0 {
		r.tail++
		r.stack = slices.Insert(r.stack, 0, l)
		return
	}
	if b := uint64(i) << r.shift / r.gran; b < uint64(r.buckets) {
		r.histo[b]++
	} else {
		r.tail++
	}
	copy(r.stack[1:i+1], r.stack[:i])
	r.stack[0] = l
}

func (r *refStack) reset() {
	clear(r.histo)
	r.tail, r.acc = 0, 0
}

func (r *refStack) curve() Curve {
	scale := float64(uint64(1) << r.shift)
	c := Curve{Gran: r.gran, M: make([]float64, r.buckets+1), Accesses: float64(r.acc)}
	c.M[r.buckets] = float64(r.tail) * scale
	for i := r.buckets - 1; i >= 0; i-- {
		c.M[i] = c.M[i+1] + float64(r.histo[i])*scale
	}
	return c
}

// sameCurve fails unless the profiler's curve equals the reference's
// exactly (every count is an integer, so the floats are exact too).
func sameCurve(t testing.TB, what string, p *Profiler, r *refStack) {
	t.Helper()
	got, want := p.Curve(), r.curve()
	if got.Accesses != want.Accesses || !slices.Equal(got.M, want.M) {
		for i := range want.M {
			if got.M[i] != want.M[i] {
				t.Fatalf("%s: bucket %d reads %v, reference %v (accesses %v/%v)",
					what, i, got.M[i], want.M[i], got.Accesses, want.Accesses)
			}
		}
		t.Fatalf("%s: accesses %v, reference %v", what, got.Accesses, want.Accesses)
	}
}

// oracleStream returns n seeded accesses: mostly a random walk over a hot
// set of hot lines, some to a second set far past most curve domains, and
// some to lines never seen before.
func oracleStream(seed uint64, n, hot int) []addr.Line {
	rng := rand.New(rand.NewPCG(seed, 0x57ac))
	out := make([]addr.Line, n)
	fresh := addr.Line(1 << 40)
	for i := range out {
		switch r := rng.IntN(100); {
		case r < 80:
			out[i] = addr.Line(rng.IntN(hot))
		case r < 95:
			out[i] = 1<<30 + addr.Line(rng.IntN(8*hot))
		default:
			fresh++
			out[i] = fresh
		}
	}
	return out
}

// TestProfilerMatchesReference holds exact and sampled profilers to the
// naive stack over streams long enough to compact many times, comparing
// the curves of every interval.
func TestProfilerMatchesReference(t *testing.T) {
	for _, g := range []struct {
		gran    uint64
		buckets int
		shift   uint
		hot     int
	}{
		{1, 8, 0, 200},    // 8-line domain: nearly every line is forgotten
		{8, 32, 0, 200},   // the hot set fits the domain
		{16, 64, 0, 1500}, // keep (1024) reaches the initial positions
		{4, 64, 2, 600},   // sampled, scaled distances
		{64, 16, 4, 3000}, // GMON-like sampling
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			p, r := NewProfiler(g.gran, g.buckets, g.shift), newRefStack(g.gran, g.buckets, g.shift)
			for i, l := range oracleStream(seed, 140_000, g.hot) {
				p.Access(l)
				r.access(l)
				if (i+1)%35_000 == 0 {
					sameCurve(t, "interval", p, r)
					p.Reset()
					r.reset()
				}
			}
		}
	}
}

// TestProfilerBoundedMemory streams ten times more distinct lines than the
// curve domain holds through one profiler: at most keep lines survive each
// compaction, the arrays stay within 8 times keep, and the curves still
// equal the unpruned reference's.
func TestProfilerBoundedMemory(t *testing.T) {
	for _, shift := range []uint{0, 2} {
		const gran, buckets = 32, 32 // a 1024-line domain
		p, r := NewProfiler(gran, buckets, shift), newRefStack(gran, buckets, shift)
		keep := int32(gran * buckets >> shift)
		limit := max(minPositions, 8*int(keep))
		rng := rand.New(rand.NewPCG(uint64(shift), 9))
		fresh, compactions := addr.Line(1<<40), 0
		for i := 0; i < 30_000; i++ {
			l := addr.Line(rng.IntN(600))
			if rng.IntN(100) < 35 {
				fresh++
				l = fresh
			}
			before := p.time
			p.Access(l)
			r.access(l)
			if p.time < before {
				compactions++
				if p.live > keep+1 {
					t.Fatalf("shift %d: %d lines survived a compaction, keep is %d", shift, p.live-1, keep)
				}
			}
			if n := len(p.bit) - 1; n > limit || len(p.pos) != n+1 || len(p.heads) != n {
				t.Fatalf("shift %d: %d positions (pos %d, heads %d), limit %d", shift, n, len(p.pos), len(p.heads), limit)
			}
		}
		if distinct := int(fresh - 1<<40); distinct < 10*int(keep<<shift) {
			t.Fatalf("shift %d: only %d distinct lines streamed", shift, distinct)
		}
		if compactions < 5 {
			t.Fatalf("shift %d: %d compactions, want several", shift, compactions)
		}
		sameCurve(t, "bounded", p, r)
	}
}

// runProfilerOracle decodes ops and replays them on a Profiler and a
// refStack, comparing curves at every interval reset and at the end.
// ops[0..2] pick the geometry (1-4 lines per bucket, 1-24 buckets,
// sampling shift 0-2) and ops[3] a line alphabet of 16-271 lines, so the
// domain is sometimes larger and sometimes far smaller than the working
// set. The remaining bytes are a pattern of line indexes (255 resets the
// interval); it repeats, drifting by one line a round, for 3000 steps,
// enough to compact a few times.
func runProfilerOracle(t testing.TB, ops []byte) {
	if len(ops) < 5 {
		return
	}
	gran, buckets, shift := uint64(1+ops[0]%4), 1+int(ops[1]%24), uint(ops[2]%3)
	alphabet := 16 + int(ops[3])
	pattern := ops[4:]
	p, r := NewProfiler(gran, buckets, shift), newRefStack(gran, buckets, shift)
	for i := 0; i < 3000; i++ {
		b := pattern[i%len(pattern)]
		if b == 255 {
			sameCurve(t, "interval", p, r)
			p.Reset()
			r.reset()
			continue
		}
		l := addr.Line((int(b) + i/len(pattern)) % alphabet)
		l = l<<40 | l%7<<20 | l // vary high and low bits, like cache's oracle lines
		p.Access(l)
		r.access(l)
	}
	sameCurve(t, "end", p, r)
}

// FuzzProfiler runs fuzzed streams against the reference stack. The seed
// corpus runs under `go test`; `make fuzz` explores beyond it.
func FuzzProfiler(f *testing.F) {
	f.Add([]byte{0, 7, 0, 0, 1, 2, 3, 1})
	f.Add([]byte{3, 23, 0, 255, 9, 200, 17, 255, 4})
	f.Add([]byte{1, 3, 2, 100, 0, 1, 2, 3, 4, 5, 6, 7, 255})
	f.Add([]byte{0, 0, 1, 40, 5, 5, 5, 6})
	rng := rand.New(rand.NewPCG(3, 4))
	for range 4 {
		ops := make([]byte, 64)
		for i := range ops {
			ops[i] = byte(rng.Uint32())
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runProfilerOracle(t, ops) })
}
