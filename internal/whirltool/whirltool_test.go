package whirltool

import (
	"strings"
	"testing"

	"whirlpool/internal/addr"
	"whirlpool/internal/mem"
	"whirlpool/internal/stats"
)

// synthetic address layout: callpoint = high bits of the line address.
func cpOf(l addr.Line) mem.Callpoint {
	return mem.Callpoint(uint64(l) >> 24)
}

func lineFor(cp mem.Callpoint, off uint64) addr.Line {
	return addr.Line(uint64(cp)<<24 | off)
}

// feed generates a stream with three callpoints: two cache-friendly pools
// with similar behaviour and one streaming pool.
func feed(p *Profiler, accesses int) {
	rng := stats.NewRng(7)
	pos := uint64(0)
	for i := 0; i < accesses; i++ {
		switch i % 3 {
		case 0: // friendly A: 8k-line hot set
			p.Access(lineFor(1, rng.Uint64n(8192)))
		case 1: // friendly B: similar 10k-line hot set
			p.Access(lineFor(2, rng.Uint64n(10240)))
		default: // streaming C
			pos++
			p.Access(lineFor(3, pos%(1<<22)))
		}
	}
}

func newTestProfiler() *Profiler {
	return NewProfiler(cpOf, ProfilerConfig{
		Gran:             1024,
		Buckets:          64,
		SampleShift:      2,
		IntervalAccesses: 100_000,
	})
}

func TestProfilerTracksCallpoints(t *testing.T) {
	p := newTestProfiler()
	feed(p, 300_000)
	prof := p.Finish()
	if len(prof.Callpoints) != 3 {
		t.Fatalf("callpoints = %v", prof.Callpoints)
	}
	if prof.Intervals != 3 {
		t.Fatalf("intervals = %d, want 3", prof.Intervals)
	}
	for _, cp := range prof.Callpoints {
		if len(prof.Curves[cp]) != prof.Intervals {
			t.Fatalf("cp %d: %d curves for %d intervals", cp, len(prof.Curves[cp]), prof.Intervals)
		}
	}
}

func TestProfilerPadsLateCallpoints(t *testing.T) {
	p := newTestProfiler()
	// Callpoint 5 only appears in the second interval.
	for i := 0; i < 100_000; i++ {
		p.Access(lineFor(1, uint64(i%1000)))
	}
	for i := 0; i < 100_000; i++ {
		p.Access(lineFor(5, uint64(i%1000)))
	}
	prof := p.Finish()
	if len(prof.Curves[5]) != 2 {
		t.Fatalf("late callpoint has %d curves, want 2", len(prof.Curves[5]))
	}
	if prof.Curves[5][0].Accesses != 0 {
		t.Fatal("padded interval should be empty")
	}
}

// The streaming callpoint must be the outlier: clustering with k=2 should
// group the two cache-friendly callpoints together (the Fig 15 intuition).
func TestAnalyzeClustersFriendlyTogether(t *testing.T) {
	p := newTestProfiler()
	feed(p, 600_000)
	d := Analyze(p.Finish())
	if len(d.Merges) != 2 {
		t.Fatalf("merges = %d, want 2", len(d.Merges))
	}
	pools := d.Pools(2)
	if len(pools) != 2 {
		t.Fatalf("pools = %d", len(pools))
	}
	// One pool must be exactly {3} (the stream).
	var streamAlone bool
	for _, g := range pools {
		if len(g) == 1 && g[0] == 3 {
			streamAlone = true
		}
	}
	if !streamAlone {
		t.Fatalf("streaming callpoint not isolated: %v", pools)
	}
	// First merge (closest) must be the two friendly pools.
	m := d.Merges[0]
	got := append(append([]mem.Callpoint(nil), m.A...), m.B...)
	if len(got) != 2 || (got[0] != 1 && got[1] != 1) || (got[0] != 2 && got[1] != 2) {
		t.Fatalf("first merge should join callpoints 1 and 2, got %v + %v", m.A, m.B)
	}
}

func TestMergeDistancesNondecreasing(t *testing.T) {
	p := newTestProfiler()
	feed(p, 600_000)
	d := Analyze(p.Finish())
	for i := 1; i < len(d.Merges); i++ {
		// Agglomerative clustering merges closest-first; later merges
		// should not be dramatically cheaper (allow slack for the
		// non-metric combined-curve distance).
		if d.Merges[i].Distance < d.Merges[i-1].Distance*0.5 {
			t.Fatalf("merge %d distance %v << previous %v", i,
				d.Merges[i].Distance, d.Merges[i-1].Distance)
		}
	}
}

func TestPoolsCuts(t *testing.T) {
	p := newTestProfiler()
	feed(p, 300_000)
	d := Analyze(p.Finish())
	if n := len(d.Pools(1)); n != 1 {
		t.Fatalf("k=1: %d pools", n)
	}
	if n := len(d.Pools(3)); n != 3 {
		t.Fatalf("k=3: %d pools", n)
	}
	if n := len(d.Pools(10)); n != 3 {
		t.Fatalf("k>leaves: %d pools, want 3", n)
	}
	// Total membership preserved at every cut.
	for k := 1; k <= 3; k++ {
		total := 0
		for _, g := range d.Pools(k) {
			total += len(g)
		}
		if total != 3 {
			t.Fatalf("k=%d loses callpoints: %d", k, total)
		}
	}
}

// Pools active in disjoint phases should cluster cheaply (Sec 4.2: the
// per-interval distance sum makes phase-disjoint pools close).
func TestPhaseDisjointPoolsAreClose(t *testing.T) {
	p := NewProfiler(cpOf, ProfilerConfig{
		Gran: 1024, Buckets: 64, SampleShift: 2, IntervalAccesses: 50_000,
	})
	rng := stats.NewRng(3)
	// Interval 1: only cp 1 active; interval 2: only cp 2; both heavy.
	// cp 3 is active in both intervals (conflicts with both).
	for i := 0; i < 50_000; i++ {
		if i%2 == 0 {
			p.Access(lineFor(1, rng.Uint64n(30000)))
		} else {
			p.Access(lineFor(3, rng.Uint64n(30000)))
		}
	}
	for i := 0; i < 50_000; i++ {
		if i%2 == 0 {
			p.Access(lineFor(2, rng.Uint64n(30000)))
		} else {
			p.Access(lineFor(3, rng.Uint64n(30000)))
		}
	}
	d := Analyze(p.Finish())
	first := d.Merges[0]
	got := map[mem.Callpoint]bool{}
	for _, cp := range append(append([]mem.Callpoint(nil), first.A...), first.B...) {
		got[cp] = true
	}
	if !got[1] || !got[2] {
		t.Fatalf("phase-disjoint pools should merge first, merged %v + %v", first.A, first.B)
	}
}

func TestRenderDendrogram(t *testing.T) {
	p := newTestProfiler()
	feed(p, 300_000)
	d := Analyze(p.Finish())
	out := d.Render(func(cp mem.Callpoint) string {
		return map[mem.Callpoint]string{1: "alpha", 2: "beta", 3: "gamma"}[cp]
	})
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "merge") {
		t.Fatalf("render output missing content:\n%s", out)
	}
}
