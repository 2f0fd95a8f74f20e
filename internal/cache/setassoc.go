// Package cache implements the hardware cache structures the simulator
// composes: set-associative arrays with pluggable replacement (LRU, SRRIP,
// BRRIP, DRRIP with set dueling), and a capacity-managed LRU store used to
// model fine-grain partitioned virtual caches (Jigsaw partitions banks with
// Vantage, so a partition behaves as an LRU cache of exactly its allocated
// capacity).
package cache

import (
	"cmp"
	"math"
	"slices"

	"whirlpool/internal/addr"
	"whirlpool/internal/stats"
)

// Repl selects the replacement policy of a SetAssoc cache.
type Repl int

// Replacement policies.
const (
	LRU Repl = iota
	SRRIP
	BRRIP
	DRRIP
)

// String returns the policy name.
func (r Repl) String() string {
	switch r {
	case LRU:
		return "LRU"
	case SRRIP:
		return "SRRIP"
	case BRRIP:
		return "BRRIP"
	case DRRIP:
		return "DRRIP"
	}
	return "unknown"
}

const (
	rrpvMax    = 3 // 2-bit re-reference prediction values
	rrpvLong   = 2 // SRRIP insertion
	brripProb  = 32
	duelLeader = 32   // leader sets per policy for DRRIP set dueling
	pselMax    = 1023 // 10-bit PSEL
)

// Eviction describes a line displaced by an insertion.
type Eviction struct {
	Line  addr.Line
	Dirty bool
}

// SetAssoc is a single set-associative cache array.
//
// Set indexing XOR-folds the upper address bits into the low index bits:
// contiguous data still spreads perfectly across sets (as with classic
// low-bit indexing) while large power-of-two strides avoid pathological
// conflicts — matching the near-ideal conflict behaviour of the paper's
// 52-candidate zcache banks (see docs/design.md).
//
// An LRU set of at most orderedWays ways is recency-ordered: its valid
// ways are packed at the front, most recently used first, so a hit moves
// its line to way 0, a miss inserts there and evicts the last way only
// when the set is full, and Invalidate closes the gap. Such a set's tags
// fit one 64-byte host line and need no timestamps. Wider LRU sets keep
// a timestamp per way and evict the oldest, since shifting a wide set on
// every hit costs more than the victim scan it saves.
//
// A tag is its line plus one, and every invalid way holds tag 0, so a
// hit on any other line reads nothing beyond the tags. Line 2^64-1 also
// has tag 0: a match on tag 0 reads the way's wayValid flag, so every
// 64-bit line can be resident.
type SetAssoc struct {
	sets    int
	ways    int
	shift   uint // log2(sets)
	kind    Repl
	ordered bool     // LRU with recency-ordered sets (ways <= orderedWays)
	tags    []uint64 // line+1 per way; 0 in every invalid way
	flags   []uint8  // wayValid and wayDirty per way; 0 = invalid
	ts      []uint32 // LRU timestamps; nil unless LRU sets are wide
	rrpv    []uint8  // re-reference predictions; nil when kind is LRU
	clock   uint32

	// DRRIP set dueling state.
	psel int
	rng  *stats.Rng

	// Statistics.
	Hits   uint64
	Misses uint64
}

// orderedWays is the widest LRU set kept in recency order: 8 tags fill
// one 64-byte host cache line.
const orderedWays = 8

// Per-way flags.
const (
	wayValid uint8 = 1 << iota
	wayDirty
)

// NewSetAssoc builds a cache of the given total size in bytes.
// sizeBytes must be a multiple of ways*LineBytes and sets must come out a
// power of two.
func NewSetAssoc(sizeBytes uint64, ways int, kind Repl) *SetAssoc {
	lines := sizeBytes / addr.LineBytes
	sets := int(lines) / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	shift := uint(0)
	for 1<<shift < sets {
		shift++
	}
	n := sets * ways
	c := &SetAssoc{
		sets:    sets,
		ways:    ways,
		shift:   shift,
		kind:    kind,
		ordered: kind == LRU && ways <= orderedWays,
		tags:    make([]uint64, n),
		flags:   make([]uint8, n),
		psel:    pselMax / 2,
		rng:     stats.NewRng(0x5eed),
	}
	// Allocate only the replacement state the policy reads.
	switch {
	case c.ordered:
	case kind == LRU:
		c.ts = make([]uint32, n)
	default:
		c.rrpv = make([]uint8, n)
	}
	return c
}

func (c *SetAssoc) setOf(l addr.Line) int {
	x := uint64(l)
	// XOR-fold three index-width slices of the address.
	folded := x ^ (x >> c.shift) ^ (x >> (2 * c.shift))
	return int(folded & uint64(c.sets-1))
}

// policyFor returns the effective insertion policy for a set, resolving
// DRRIP set dueling.
func (c *SetAssoc) policyFor(set int) Repl {
	if c.kind != DRRIP {
		return c.kind
	}
	// Leader sets: first duelLeader sets follow SRRIP, next follow BRRIP.
	switch {
	case set < duelLeader:
		return SRRIP
	case set < 2*duelLeader:
		return BRRIP
	default:
		if c.psel >= pselMax/2 {
			return BRRIP
		}
		return SRRIP
	}
}

// duelMiss updates PSEL on a miss in a leader set.
func (c *SetAssoc) duelMiss(set int) {
	if c.kind != DRRIP {
		return
	}
	if set < duelLeader {
		// Miss in SRRIP leader: vote for BRRIP.
		if c.psel < pselMax {
			c.psel++
		}
	} else if set < 2*duelLeader {
		if c.psel > 0 {
			c.psel--
		}
	}
}

// valid reports whether way i holds a line.
func (c *SetAssoc) valid(i int) bool { return c.flags[i] != 0 }

// find returns the way that holds l in the set at base, or -1.
func (c *SetAssoc) find(base int, l addr.Line) int {
	tag := uint64(l) + 1
	if tag == 0 {
		return c.findTop(base)
	}
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return w
		}
	}
	return -1
}

// findTop is find for line 2^64-1, whose tag 0 invalid ways share.
func (c *SetAssoc) findTop(base int) int {
	for w, t := range c.tags[base : base+c.ways] {
		if t == 0 && c.valid(base+w) {
			return w
		}
	}
	return -1
}

// Access looks up line l, updating replacement state, and inserts it on a
// miss. It reports whether the access hit, and the eviction (if any) caused
// by the fill.
func (c *SetAssoc) Access(l addr.Line, write bool) (hit bool, ev Eviction, evicted bool) {
	set := c.setOf(l)
	base := set * c.ways
	if c.ordered {
		return c.accessOrdered(base, l, write)
	}
	if c.clock == math.MaxUint32 {
		return c.accessAtWrap(l, write)
	}
	c.clock++
	if w := c.find(base, l); w >= 0 {
		c.Hits++
		i := base + w
		if c.kind == LRU {
			c.ts[i] = c.clock
		} else {
			c.rrpv[i] = 0
		}
		if write {
			c.flags[i] = wayValid | wayDirty
		}
		return true, Eviction{}, false
	}
	c.Misses++
	c.duelMiss(set)
	idx := base + c.victim(base)
	if c.valid(idx) {
		ev = Eviction{Line: addr.Line(c.tags[idx] - 1), Dirty: c.flags[idx]&wayDirty != 0}
		evicted = true
	}
	c.tags[idx] = uint64(l) + 1
	c.flags[idx] = wayValid | dirtyFlag(write)
	switch c.policyFor(set) {
	case LRU:
		c.ts[idx] = c.clock
	case SRRIP:
		c.rrpv[idx] = rrpvLong
	case BRRIP:
		if c.rng.Intn(brripProb) == 0 {
			c.rrpv[idx] = rrpvLong
		} else {
			c.rrpv[idx] = rrpvMax
		}
	}
	return false, ev, evicted
}

// accessOrdered is Access on the recency-ordered set at base: the line
// ends up in way 0 and the ways in front of its old place (or, on a miss,
// of the first invalid way or the evicted last way) move back by one.
func (c *SetAssoc) accessOrdered(base int, l addr.Line, write bool) (hit bool, ev Eviction, evicted bool) {
	tags, flags := c.tags[base:base+c.ways], c.flags[base:base+c.ways]
	f := wayValid | dirtyFlag(write)
	i := c.find(base, l)
	if i >= 0 {
		c.Hits++
		hit = true
		f |= flags[i]
	} else {
		c.Misses++
		i = len(tags) - 1
		if flags[i] != 0 {
			ev = Eviction{Line: addr.Line(tags[i] - 1), Dirty: flags[i]&wayDirty != 0}
			evicted = true
		} else {
			i = 0
			for flags[i] != 0 {
				i++
			}
		}
	}
	for ; i > 0; i-- {
		tags[i], flags[i] = tags[i-1], flags[i-1]
	}
	tags[0], flags[0] = uint64(l)+1, f
	return hit, ev, evicted
}

func dirtyFlag(write bool) uint8 {
	if write {
		return wayDirty
	}
	return 0
}

// victim picks the way to replace in the timestamped or RRIP set at base.
func (c *SetAssoc) victim(base int) int {
	// Prefer invalid ways.
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == 0 && !c.valid(base+w) {
			return w
		}
	}
	if c.kind == LRU {
		best, bestTS := 0, c.ts[base]
		for w := 1; w < c.ways; w++ {
			if c.ts[base+w] < bestTS {
				best, bestTS = w, c.ts[base+w]
			}
		}
		return best
	}
	// RRIP family: find RRPV==max, aging as needed.
	for {
		for w := 0; w < c.ways; w++ {
			if c.rrpv[base+w] >= rrpvMax {
				return w
			}
		}
		for w := 0; w < c.ways; w++ {
			c.rrpv[base+w]++
		}
	}
}

// accessAtWrap is Access on a timestamped or RRIP set when the clock is
// about to wrap. It restamps the valid ways of each timestamped LRU set
// 1, 2, ... from least to most recently used, which keeps every set's
// recency order, restarts the clock above them and makes the access.
// Access returns its result as is, so the check costs Access's hot path
// one compare and no register spills.
func (c *SetAssoc) accessAtWrap(l addr.Line, write bool) (hit bool, ev Eviction, evicted bool) {
	if c.ts != nil { // RRIP reads no timestamps
		order := make([]int, 0, c.ways)
		for base := 0; base < len(c.ts); base += c.ways {
			order = order[:0]
			for i := base; i < base+c.ways; i++ {
				if c.valid(i) {
					order = append(order, i)
				}
			}
			slices.SortFunc(order, func(a, b int) int { return cmp.Compare(c.ts[a], c.ts[b]) })
			for r, i := range order {
				c.ts[i] = uint32(r + 1)
			}
		}
	}
	c.clock = uint32(c.ways)
	return c.Access(l, write)
}

// Writeback marks l dirty if present (an L2 writeback arriving at an
// inclusive LLC). It reports whether the line was present; if not, the
// writeback must go to memory. It does not insert or promote.
func (c *SetAssoc) Writeback(l addr.Line) bool {
	base := c.setOf(l) * c.ways
	w := c.find(base, l)
	if w < 0 {
		return false
	}
	c.flags[base+w] = wayValid | wayDirty
	return true
}

// Invalidate removes l if present, reporting presence and dirtiness. In
// a recency-ordered set the ways behind l move forward by one.
func (c *SetAssoc) Invalidate(l addr.Line) (present, dirty bool) {
	base := c.setOf(l) * c.ways
	w := c.find(base, l)
	if w < 0 {
		return false, false
	}
	i := base + w
	dirty = c.flags[i]&wayDirty != 0
	if c.ordered {
		tags, flags := c.tags[base:base+c.ways], c.flags[base:base+c.ways]
		copy(tags[w:], tags[w+1:])
		copy(flags[w:], flags[w+1:])
		i = base + c.ways - 1
	}
	c.tags[i], c.flags[i] = 0, 0
	return true, dirty
}
