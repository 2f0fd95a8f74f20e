// Package mrc implements miss-rate-curve machinery: Mattson stack-distance
// profiling (exact and hash-sampled), the curve algebra Jigsaw's runtime
// and WhirlTool's analyzer need — convex hulls, optimal convex
// partitioning — and the paper's Appendix B model for combining the miss
// curves of two pools that share a cache.
package mrc

// Curve is a miss-rate curve: M[i] is the expected number of misses per
// measurement interval when the pool is given a cache of i*Gran lines.
// M is non-increasing; M[0] counts every access as a miss.
//
// Curves from the same interval are directly comparable and, per the
// Appendix B flow argument, additive in "flow" terms.
type Curve struct {
	Gran     uint64    // lines per bucket
	M        []float64 // misses at capacity i*Gran, i = 0..len(M)-1
	Accesses float64   // accesses in the interval
}

// NewCurve returns an all-miss curve with n+1 points (capacity 0..n*gran)
// for a pool with the given accesses per interval.
func NewCurve(n int, gran uint64, accesses float64) Curve {
	m := make([]float64, n+1)
	for i := range m {
		m[i] = accesses
	}
	return Curve{Gran: gran, M: m, Accesses: accesses}
}

// Clone returns a deep copy.
func (c Curve) Clone() Curve {
	out := c
	out.M = append([]float64(nil), c.M...)
	return out
}

// Buckets returns the number of capacity steps (len(M)-1).
func (c Curve) Buckets() int { return len(c.M) - 1 }

// At returns the miss count at a capacity of `lines`, linearly
// interpolating between buckets and clamping at the ends.
func (c Curve) At(lines uint64) float64 {
	if len(c.M) == 0 {
		return 0
	}
	pos := float64(lines) / float64(c.Gran)
	i := int(pos)
	if i >= len(c.M)-1 {
		return c.M[len(c.M)-1]
	}
	frac := pos - float64(i)
	return c.M[i]*(1-frac) + c.M[i+1]*frac
}

// atF reads the curve at fractional bucket position s, clamping.
func (c Curve) atF(s float64) float64 {
	if s <= 0 {
		return c.M[0]
	}
	i := int(s)
	if i >= len(c.M)-1 {
		return c.M[len(c.M)-1]
	}
	frac := s - float64(i)
	return c.M[i]*(1-frac) + c.M[i+1]*frac
}

// Monotonize enforces the non-increasing invariant in place (profiling
// noise from sampling can produce tiny inversions).
func (c *Curve) Monotonize() {
	for i := 1; i < len(c.M); i++ {
		if c.M[i] > c.M[i-1] {
			c.M[i] = c.M[i-1]
		}
	}
}

// ConvexHull returns the lower convex envelope of the curve: the best
// performance achievable at every size by time-sharing two configurations
// (the paper computes hulls before partitioning; Melkman-style linear-time
// scan).
func (c Curve) ConvexHull() Curve {
	n := len(c.M)
	out := c.Clone()
	if n < 3 {
		return out
	}
	// Graham scan over points (i, M[i]) keeping the lower hull, then fill
	// intermediate buckets by linear interpolation between hull vertices.
	type pt struct {
		x int
		y float64
	}
	hull := make([]pt, 0, n)
	for i := 0; i < n; i++ {
		p := pt{i, c.M[i]}
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Remove b if it lies above segment a-p (cross product).
			if (float64(b.x-a.x))*(p.y-a.y)-(b.y-a.y)*(float64(p.x-a.x)) <= 0 {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, p)
	}
	for k := 0; k+1 < len(hull); k++ {
		a, b := hull[k], hull[k+1]
		for i := a.x; i <= b.x; i++ {
			frac := float64(i-a.x) / float64(b.x-a.x)
			out.M[i] = a.y*(1-frac) + b.y*frac
		}
	}
	return out
}

// Combine implements the paper's Appendix B flow model: the miss curve
// that results from two pools sharing one unpartitioned cache. Both inputs
// must share Gran. The output covers the sum of the input domains.
//
//	def combineMissCurves(m1, m2):
//	    s1, s2 = 0, 0
//	    for s = 0 to N:
//	        m[s] = m1[s1] + m2[s2]
//	        s1 += m1[s1] / m[s]
//	        s2 += m2[s2] / m[s]
func Combine(a, b Curve) Curve {
	if a.Gran != b.Gran {
		panic("mrc: Combine granularity mismatch")
	}
	n := a.Buckets() + b.Buckets()
	out := Curve{Gran: a.Gran, M: make([]float64, n+1), Accesses: a.Accesses + b.Accesses}
	s1, s2 := 0.0, 0.0
	for s := 0; s <= n; s++ {
		m1 := a.atF(s1)
		m2 := b.atF(s2)
		m := m1 + m2
		out.M[s] = m
		if m > 0 {
			s1 += m1 / m
			s2 += m2 / m
		} else {
			// No flow at all: split the remaining capacity evenly.
			s1 += 0.5
			s2 += 0.5
		}
	}
	out.Monotonize()
	return out
}

// Partition returns the best achievable miss curve when capacity is
// explicitly split between two pools at every total size: the infimal
// convolution of the two convex hulls. With convex inputs the greedy
// marginal-gain merge is optimal and runs in linear time (this is the
// "partitioned miss rate curve" of Sec 4.2).
func Partition(a, b Curve) Curve {
	if a.Gran != b.Gran {
		panic("mrc: Partition granularity mismatch")
	}
	ha, hb := a.ConvexHull(), b.ConvexHull()
	n := a.Buckets() + b.Buckets()
	out := Curve{Gran: a.Gran, M: make([]float64, n+1), Accesses: a.Accesses + b.Accesses}
	out.M[0] = ha.M[0] + hb.M[0]
	ia, ib := 0, 0
	for s := 1; s <= n; s++ {
		var gainA, gainB float64
		if ia < ha.Buckets() {
			gainA = ha.M[ia] - ha.M[ia+1]
		} else {
			gainA = -1
		}
		if ib < hb.Buckets() {
			gainB = hb.M[ib] - hb.M[ib+1]
		} else {
			gainB = -1
		}
		if gainA >= gainB {
			ia++
		} else {
			ib++
		}
		out.M[s] = ha.M[ia] + hb.M[ib]
	}
	return out
}

// Distance is WhirlTool's clustering metric for one interval: the area
// between the combined and partitioned curves — how many extra misses
// merging the pools would cost versus keeping them apart. It is >= 0.
func Distance(a, b Curve) float64 {
	comb := Combine(a, b)
	part := Partition(a, b)
	area := 0.0
	for i := range comb.M {
		d := comb.M[i] - part.M[i]
		if d > 0 {
			area += d
		}
	}
	return area * float64(comb.Gran)
}
