package mon

import (
	"testing"

	"whirlpool/internal/addr"
	"whirlpool/internal/stats"
)

func TestMonitorCountsAccesses(t *testing.T) {
	m := New(1024, 65536, 4)
	for i := 0; i < 1000; i++ {
		m.Access(2, addr.Line(i))
	}
	if m.Accesses != 1000 {
		t.Fatalf("accesses=%d", m.Accesses)
	}
	if m.CoreAccess[2] != 1000 || m.CoreAccess[0] != 0 {
		t.Fatalf("core attribution wrong: %v", m.CoreAccess)
	}
}

func TestMonitorCurveNormalized(t *testing.T) {
	m := New(1024, 65536, 4)
	rng := stats.NewRng(3)
	for i := 0; i < 50000; i++ {
		m.Access(0, addr.Line(rng.Uint64n(4096)))
	}
	c := m.Curve()
	// M[0] is pinned to the true access count: sampling bias calibrated.
	if c.M[0] != float64(m.Accesses) {
		t.Fatalf("M[0]=%v, want %v", c.M[0], float64(m.Accesses))
	}
	// The 4096-line working set fits by ~8192 lines: misses near zero.
	if got := c.At(8192); got > float64(m.Accesses)/10 {
		t.Fatalf("misses at 8192 lines = %v; working set should fit", got)
	}
}

func TestMonitorStreamingLooksFlat(t *testing.T) {
	m := New(1024, 65536, 4)
	for i := 0; i < 200000; i++ {
		m.Access(0, addr.Line(i)) // never reuses
	}
	c := m.Curve()
	// Streaming: misses stay near the access count at every size.
	if got := c.At(65536); got < 0.9*float64(m.Accesses) {
		t.Fatalf("streaming curve dropped to %v of %v", got, float64(m.Accesses))
	}
}

func TestMonitorIntervalReset(t *testing.T) {
	m := New(1024, 65536, 4)
	rng := stats.NewRng(7)
	for i := 0; i < 30000; i++ {
		m.Access(0, addr.Line(rng.Uint64n(2048)))
	}
	m.ResetInterval()
	if m.Accesses != 0 || m.CoreAccess[0] != 0 {
		t.Fatal("interval counters not reset")
	}
	// Recency survives: the next interval's accesses to the same lines
	// should show small distances (not cold).
	for i := 0; i < 30000; i++ {
		m.Access(0, addr.Line(rng.Uint64n(2048)))
	}
	c := m.Curve()
	if got := c.At(4096); got > float64(m.Accesses)/20 {
		t.Fatalf("recency lost across intervals: %v misses at 4096 lines", got)
	}
}
