package traffic

import (
	"math"
	"time"

	"whirlpool/internal/stats"
)

// arrivals generates one client class's deterministic request schedule:
// next() returns successive arrival offsets from the run's start. The
// schedule depends only on (spec seed, class id, class parameters), so
// two runs of one spec issue requests at identical offsets.
type arrivals struct {
	c   *Client
	rng *stats.Rng
	// t is the next arrival offset to hand out.
	t time.Duration
	// inBurst counts arrivals already emitted in the current burst
	// (bursty only).
	inBurst int
}

// newArrivals builds the schedule generator for one class. The class id
// is folded into the seed so classes draw independent streams even at
// equal rates.
func newArrivals(seed uint64, c *Client) *arrivals {
	h := seed
	for _, b := range []byte(c.ID) {
		h = h*1099511628211 + uint64(b) // FNV-1a fold, same spirit as ShardOf
	}
	return &arrivals{c: c, rng: stats.NewRng(h)}
}

// next returns the next arrival offset from the run start.
func (a *arrivals) next() time.Duration {
	interval := float64(time.Second) / a.c.Rate // nanoseconds
	switch a.c.Arrival {
	case ArrivalPoisson:
		// Exponential inter-arrival with mean 1/rate: -ln(U)/rate.
		u := a.rng.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		gap := -math.Log(u) / a.c.Rate
		a.advance(gap * float64(time.Second))
	case ArrivalBursty:
		// Burst.Size back-to-back arrivals, then one idle gap sized so
		// the long-run average rate is still Rate.
		if a.inBurst < a.c.Burst.Size {
			a.inBurst++
			// Arrivals inside a burst share one offset (back-to-back).
		} else {
			a.inBurst = 1
			a.advance(float64(a.c.Burst.Size) * math.Trunc(interval))
		}
	default: // constant
		a.advance(interval)
	}
	return a.t
}

// advance moves the next offset ns nanoseconds on, stopping at the
// largest time.Duration instead of wrapping negative: a rate so low that
// its gaps overflow ends the schedule.
func (a *arrivals) advance(ns float64) {
	if ns >= float64(math.MaxInt64-a.t) {
		a.t = math.MaxInt64
		return
	}
	a.t += time.Duration(ns)
}
