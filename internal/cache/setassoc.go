// Package cache implements the hardware cache structures the simulator
// composes: set-associative arrays with pluggable replacement (LRU, SRRIP,
// BRRIP, DRRIP with set dueling), and a capacity-managed LRU store used to
// model fine-grain partitioned virtual caches (Jigsaw partitions banks with
// Vantage, so a partition behaves as an LRU cache of exactly its allocated
// capacity).
package cache

import (
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
type SetAssoc struct {
	sets  int
	ways  int
	shift uint // log2(sets)
	kind  Repl
	tags  []uint64 // line+1; 0 = invalid
	ts    []uint32 // LRU timestamps; nil unless kind is LRU
	rrpv  []uint8  // re-reference predictions; nil when kind is LRU
	dirty []bool
	clock uint32

	// DRRIP set dueling state.
	psel int
	rng  *stats.Rng

	// Statistics.
	Hits   uint64
	Misses uint64
}

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
		sets:  sets,
		ways:  ways,
		shift: shift,
		kind:  kind,
		tags:  make([]uint64, n),
		dirty: make([]bool, n),
		psel:  pselMax / 2,
		rng:   stats.NewRng(0x5eed),
	}
	// Allocate only the replacement state the policy reads.
	if kind == LRU {
		c.ts = make([]uint32, n)
	} else {
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

// Access looks up line l, updating replacement state, and inserts it on a
// miss. It reports whether the access hit, and the eviction (if any) caused
// by the fill.
func (c *SetAssoc) Access(l addr.Line, write bool) (hit bool, ev Eviction, evicted bool) {
	set := c.setOf(l)
	base := set * c.ways
	tag := uint64(l) + 1
	c.clock++
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == tag {
			c.Hits++
			if c.kind == LRU {
				c.ts[base+w] = c.clock
			} else {
				c.rrpv[base+w] = 0
			}
			if write {
				c.dirty[base+w] = true
			}
			return true, Eviction{}, false
		}
	}
	c.Misses++
	c.duelMiss(set)
	w := c.victim(set)
	idx := base + w
	if c.tags[idx] != 0 {
		ev = Eviction{Line: addr.Line(c.tags[idx] - 1), Dirty: c.dirty[idx]}
		evicted = true
	}
	c.tags[idx] = tag
	c.dirty[idx] = write
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

// victim picks the way to replace in set.
func (c *SetAssoc) victim(set int) int {
	base := set * c.ways
	// Prefer invalid ways.
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == 0 {
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

// Writeback marks l dirty if present (an L2 writeback arriving at an
// inclusive LLC). It reports whether the line was present; if not, the
// writeback must go to memory. It does not insert or promote.
func (c *SetAssoc) Writeback(l addr.Line) bool {
	base := c.setOf(l) * c.ways
	tag := uint64(l) + 1
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == tag {
			c.dirty[base+w] = true
			return true
		}
	}
	return false
}

// Invalidate removes l if present, reporting presence and dirtiness.
func (c *SetAssoc) Invalidate(l addr.Line) (present, dirty bool) {
	base := c.setOf(l) * c.ways
	tag := uint64(l) + 1
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == tag {
			d := c.dirty[base+w]
			c.tags[base+w] = 0
			c.dirty[base+w] = false
			return true, d
		}
	}
	return false, false
}
