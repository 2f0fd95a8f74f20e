package mrc

import (
	"math"
	"math/bits"

	"whirlpool/internal/addr"
	"whirlpool/internal/stats"
)

// Profiler measures LRU stack distances over a line-address stream and
// produces miss-rate curves (Mattson's algorithm with an order-statistic
// Fenwick tree, O(log n) per access).
//
// With SampleShift > 0 the profiler hash-samples 1/2^shift of all lines and
// scales distances and counts back up — the same trick hardware GMONs and
// RapidMRC use — cutting time and memory by the sampling factor while
// preserving curve shape.
//
// Every sampled access takes the next time position: pos[t] holds the
// line last accessed at time t, and the Fenwick tree marks the live
// positions, so a line's stack distance is the number of marks after its
// position. The line index is intrusive, like cache.CapLRU's: heads holds
// the position at the head of each hash chain and pos[t].hnext links the
// chain, so an access does no Go map operation.
//
// When the positions run out, compact renumbers the live lines 1..k in
// time order and forgets the lines whose stack distance already reaches
// the curve domain. A line's distance only grows until it is reused, so
// its next access would count as over; forgotten, it counts as cold, and
// Curve adds both into the same tail. The forgotten lines are older than
// every kept line, so no kept line's distance changes. The curves are
// therefore exactly those of an unbounded LRU stack, while memory follows
// the lines that can still land inside the domain: at most keep lines
// survive a compaction, and the arrays are resized to hold between 2 and
// 8 times the survivors (never below minPositions).
type Profiler struct {
	gran        uint64 // lines per curve bucket
	buckets     int
	sampleShift uint
	keep        int32 // sampled lines whose next reuse can land in the domain

	pos   []posSlot // pos[t]: the line last accessed at time t (1-based)
	bit   []int32   // Fenwick tree over pos: 1 at live positions
	heads []int32   // hash chain heads (positions), -1 when empty; len(heads) == len(pos)-1
	shift uint      // 64 - log2(len(heads))
	time  int32     // last time position handed out
	live  int32     // live positions (= tracked lines)

	histo []uint64 // histo[i]: distances in [i*gran, (i+1)*gran), post-scaling
	over  uint64   // distances beyond the curve domain
	cold  uint64   // first-touch accesses, and reuses of forgotten lines
	acc   uint64   // total accesses observed (pre-sampling)
}

// posSlot is one time position: the line accessed then and the next
// position in the same hash chain (-1 ends it).
type posSlot struct {
	line  addr.Line
	hnext int32
}

// vacant is the hnext of a position whose line has since moved on; such
// a position is in no chain.
const vacant = -2

// minPositions is the initial (and smallest) number of time positions.
const minPositions = 1 << 10

// NewProfiler creates a profiler producing curves with the given bucket
// granularity (in lines) and bucket count. sampleShift of 6 samples 1/64
// of lines; 0 profiles exactly.
func NewProfiler(gran uint64, buckets int, sampleShift uint) *Profiler {
	if gran == 0 || buckets <= 0 {
		panic("mrc: bad profiler geometry")
	}
	domain := gran * uint64(buckets)
	keep := (domain + 1<<sampleShift - 1) >> sampleShift
	p := &Profiler{
		gran:        gran,
		buckets:     buckets,
		sampleShift: sampleShift,
		keep:        int32(min(keep, math.MaxInt32)),
		histo:       make([]uint64, buckets),
	}
	p.compact() // allocates the arrays for no lines
	return p
}

// resize replaces the arrays with ones for n positions (a power of two),
// keeping pos[1..k].
func (p *Profiler) resize(n int, k int32) {
	pos := make([]posSlot, n+1)
	if k > 0 {
		copy(pos[1:], p.pos[1:k+1])
	}
	p.pos = pos
	p.bit = make([]int32, n+1)
	p.heads = make([]int32, n)
	p.shift = 64 - uint(bits.TrailingZeros(uint(n)))
}

// hash is Fibonacci hashing: the top bits of the line times 2^64/φ.
func (p *Profiler) hash(l addr.Line) uint64 {
	return uint64(l) * 0x9E3779B97F4A7C15 >> p.shift
}

// bitAdd adds v at position i (1-based).
func (p *Profiler) bitAdd(i, v int32) {
	for ; int(i) < len(p.bit); i += i & (-i) {
		p.bit[i] += v
	}
}

// bitSum returns the prefix sum over [1, i].
func (p *Profiler) bitSum(i int32) int32 {
	s := int32(0)
	for ; i > 0; i -= i & (-i) {
		s += p.bit[i]
	}
	return s
}

// compact renumbers the live positions 1..k preserving order, forgetting
// the oldest lines past keep, and rebuilds the index and the tree in
// linear time. Called before an access that would find no free position.
func (p *Profiler) compact() {
	drop := p.live - p.keep
	k := int32(0)
	for t := int32(1); t <= p.time; t++ {
		if p.pos[t].hnext == vacant {
			continue
		}
		if drop > 0 {
			drop--
			continue
		}
		k++
		p.pos[k].line = p.pos[t].line
	}
	// Leave room for at least k more accesses, and shrink once the
	// arrays hold 8 times the survivors. (A new profiler has no arrays.)
	if n := len(p.bit) - 1; 2*int(k) > n || (n > minPositions && 8*int(k) <= n) {
		n = minPositions
		for n < 2*int(k) {
			n *= 2
		}
		p.resize(n, k)
	}
	for i := range p.heads {
		p.heads[i] = -1
	}
	for t := int32(1); t <= k; t++ {
		h := &p.heads[p.hash(p.pos[t].line)]
		p.pos[t].hnext = *h
		*h = t
	}
	// The live positions are exactly 1..k: node i of the tree covers
	// (i-lowbit(i), i], which holds max(0, min(i, k)-(i-lowbit(i))) of them.
	for i := int32(1); int(i) < len(p.bit); i++ {
		p.bit[i] = max(0, min(i, k)-(i-i&(-i)))
	}
	p.time, p.live = k, k
}

// sampled reports whether line l is in the sampled subset.
func (p *Profiler) sampled(l addr.Line) bool {
	if p.sampleShift == 0 {
		return true
	}
	return stats.Hash64(uint64(l))&((1<<p.sampleShift)-1) == 0
}

// Access records one access to line l.
func (p *Profiler) Access(l addr.Line) {
	p.acc++
	if !p.sampled(l) {
		return
	}
	if int(p.time)+1 >= len(p.bit) {
		p.compact()
	}
	h := p.hash(l)
	link := &p.heads[h]
	for *link >= 0 && p.pos[*link].line != l {
		link = &p.pos[*link].hnext
	}
	if t := *link; t >= 0 {
		// Distance = number of distinct lines accessed strictly after t.
		d := uint64(p.live-p.bitSum(t)) << p.sampleShift
		if b := d / p.gran; b < uint64(p.buckets) {
			p.histo[b]++
		} else {
			p.over++
		}
		p.bitAdd(t, -1)
		p.live--
		*link = p.pos[t].hnext
		p.pos[t].hnext = vacant
	} else {
		p.cold++
	}
	p.time++
	p.pos[p.time] = posSlot{line: l, hnext: p.heads[h]}
	p.heads[h] = p.time
	p.bitAdd(p.time, 1)
	p.live++
}

// Curve converts the recorded histogram into a miss curve: misses at
// capacity c = cold + (distances >= c). Sampled counts are scaled back up.
func (p *Profiler) Curve() Curve {
	scale := float64(uint64(1) << p.sampleShift)
	c := Curve{Gran: p.gran, M: make([]float64, p.buckets+1), Accesses: float64(p.acc)}
	tail := (float64(p.cold) + float64(p.over)) * scale
	c.M[p.buckets] = tail
	for i := p.buckets - 1; i >= 0; i-- {
		c.M[i] = c.M[i+1] + float64(p.histo[i])*scale
	}
	return c
}

// Reset clears the distance histogram and access counters but keeps the
// recency state, so consecutive intervals see warm history (matching
// periodic hardware monitors that only reset counters).
func (p *Profiler) Reset() {
	for i := range p.histo {
		p.histo[i] = 0
	}
	p.over, p.cold, p.acc = 0, 0, 0
}
