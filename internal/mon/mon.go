// Package mon implements the runtime utility monitors (GMONs) each
// virtual cache carries: hash-sampled stack-distance monitors that produce
// a miss-rate curve per reconfiguration interval, plus per-core access
// weights used to place shared VCs.
package mon

import (
	"whirlpool/internal/addr"
	"whirlpool/internal/mrc"
)

// SampleShift subsamples 1-in-16 lines. Hardware GMONs use coarser
// sampling but calibrate against exact access counters; 1/16 gives our
// software monitors comparable accuracy at negligible simulation cost.
const SampleShift = 4

// Monitor tracks one VC's access behaviour during an interval.
type Monitor struct {
	prof *mrc.Profiler

	// Interval counters.
	Accesses   uint64
	CoreAccess []uint64 // per-core demand accesses (placement centroid)
}

// New creates a monitor whose curves span maxLines of capacity in buckets
// of gran lines.
func New(gran, maxLines uint64, nCores int) *Monitor {
	buckets := int((maxLines + gran - 1) / gran)
	return &Monitor{
		prof:       mrc.NewProfiler(gran, buckets, SampleShift),
		CoreAccess: make([]uint64, nCores),
	}
}

// Access records a demand access from core to line l.
func (m *Monitor) Access(core int, l addr.Line) {
	m.Accesses++
	m.CoreAccess[core]++
	m.prof.Access(l)
}

// Curve returns the interval's miss-rate curve (misses per interval as a
// function of capacity). The sampled curve is normalized so that
// M[0] equals the true access count — at zero capacity every access
// misses by definition, which calibrates away sampling bias exactly as
// hardware GMONs calibrate way counters against the access counter.
func (m *Monitor) Curve() mrc.Curve {
	c := m.prof.Curve()
	c.Accesses = float64(m.Accesses)
	if len(c.M) > 0 && c.M[0] > 0 && m.Accesses > 0 {
		scale := c.Accesses / c.M[0]
		for i := range c.M {
			c.M[i] *= scale
		}
	}
	return c
}

// ResetInterval clears interval counters while keeping recency state warm
// (hardware monitors only reset counters at reconfiguration).
func (m *Monitor) ResetInterval() {
	m.Accesses = 0
	for i := range m.CoreAccess {
		m.CoreAccess[i] = 0
	}
	m.prof.Reset()
}
