package cache

import (
	"math/bits"

	"whirlpool/internal/addr"
)

// CapLRU is a fully-associative LRU store with an adjustable capacity in
// lines. It models one virtual cache partition: Jigsaw's Vantage
// partitioning keeps each partition at exactly its allocated size, so the
// partition's hit/miss behaviour is that of an LRU cache of that capacity.
//
// The resident lines are always nodes[:Size()], linked into an intrusive
// doubly-linked LRU list. A miss in a full store reuses the LRU node's
// slot, and a shrink moves the last node into each slot it frees, so
// there is no free list and steady-state operation does not allocate.
// The line index is intrusive too: buckets holds the head node of each
// hash chain and capNode.hnext links the chain, so a hit touches one
// bucket and one node (a Go map probe hashes through the runtime and
// touches more memory).
//
// Memory follows the resident lines: the node array doubles from
// minNodes but never past the capacity, a shrink reallocates a node
// array left over twice the capacity and an index left over four times
// it, and InvalidateAll releases both.
type CapLRU struct {
	capacity int
	buckets  []int32   // chain heads, -1 when empty; len is a power of two
	shift    uint      // 64 - log2(len(buckets))
	nodes    []capNode // the resident lines; cap(nodes) is the room
	dirty    []uint64  // bit i%64 of dirty[i/64] is node i's dirty bit
	head     int32     // MRU; -1 when empty
	tail     int32     // LRU; -1 when empty

	Hits   uint64
	Misses uint64
}

// capNode is one resident line. The line is split into two 32-bit words
// and its dirty bit kept in CapLRU.dirty, so a node is 20 bytes.
type capNode struct {
	lo, hi     uint32 // the line's low and high 32 bits
	prev, next int32
	hnext      int32 // next node in the same hash chain; -1 ends it
}

func (n *capNode) line() addr.Line { return addr.Line(uint64(n.hi)<<32 | uint64(n.lo)) }

const (
	minBuckets = 8  // the smallest index size
	minNodes   = 16 // the smallest node array a growing store allocates
)

// NewCapLRU creates a store with the given capacity in lines (may be 0).
func NewCapLRU(capacity int) *CapLRU {
	c := &CapLRU{capacity: capacity, head: -1, tail: -1}
	c.setBuckets(minBuckets)
	return c
}

// Size returns the number of resident lines.
func (c *CapLRU) Size() int { return len(c.nodes) }

// setBuckets replaces the index with n empty chains (n a power of two).
func (c *CapLRU) setBuckets(n int) {
	c.buckets = make([]int32, n)
	for i := range c.buckets {
		c.buckets[i] = -1
	}
	c.shift = 64 - uint(bits.TrailingZeros(uint(n)))
}

// rehash replaces the index with n chains and links every resident node.
func (c *CapLRU) rehash(n int) {
	c.setBuckets(n)
	for i := range c.nodes {
		c.hash(int32(i), c.nodes[i].line())
	}
}

// bucket is Fibonacci hashing: the top bits of the line times 2^64/φ.
func (c *CapLRU) bucket(l addr.Line) uint64 {
	return uint64(l) * 0x9E3779B97F4A7C15 >> c.shift
}

// find returns the node holding l, or -1.
func (c *CapLRU) find(l addr.Line) int32 {
	lo, hi := uint32(l), uint32(l>>32)
	i := c.buckets[c.bucket(l)]
	for i >= 0 {
		n := &c.nodes[i]
		if n.lo == lo && n.hi == hi {
			break
		}
		i = n.hnext
	}
	return i
}

// hash links node i, which holds l, at the head of l's chain.
func (c *CapLRU) hash(i int32, l addr.Line) {
	b := &c.buckets[c.bucket(l)]
	c.nodes[i].hnext = *b
	*b = i
}

// chainLink returns the index slot that points at node i: its bucket or
// the hnext of the node before it in its chain.
func (c *CapLRU) chainLink(i int32) *int32 {
	p := &c.buckets[c.bucket(c.nodes[i].line())]
	for *p != i {
		p = &c.nodes[*p].hnext
	}
	return p
}

// detach takes node i out of the LRU list and out of its hash chain.
func (c *CapLRU) detach(i int32) {
	c.unlink(i)
	*c.chainLink(i) = c.nodes[i].hnext
}

func (c *CapLRU) isDirty(i int32) bool { return c.dirty[i>>6]&(1<<(i&63)) != 0 }

func (c *CapLRU) setDirty(i int32, d bool) {
	w, m := &c.dirty[i>>6], uint64(1)<<(i&63)
	if d {
		*w |= m
	} else {
		*w &^= m
	}
}

func (c *CapLRU) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *CapLRU) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev = -1
	n.next = c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// realloc moves the nodes and their dirty bits into arrays with room for
// room nodes (room >= Size()).
func (c *CapLRU) realloc(room int) {
	nodes := make([]capNode, len(c.nodes), room)
	copy(nodes, c.nodes)
	dirty := make([]uint64, (room+63)/64)
	copy(dirty, c.dirty)
	c.nodes, c.dirty = nodes, dirty
}

// push appends a node slot and returns its index. The arrays double when
// full, from minNodes up, but never past the capacity.
func (c *CapLRU) push() int32 {
	n := len(c.nodes)
	if n == cap(c.nodes) {
		c.realloc(min(max(2*n, minNodes), c.capacity))
	}
	c.nodes = c.nodes[:n+1]
	return int32(n)
}

// removeLRU drops the least-recently-used line, reporting whether it was
// dirty, and moves the last node into the slot it frees.
func (c *CapLRU) removeLRU() (dirty bool) {
	i := c.tail
	dirty = c.isDirty(i)
	c.detach(i)
	if last := int32(len(c.nodes) - 1); i != last {
		*c.chainLink(last) = i
		n := c.nodes[last]
		c.nodes[i] = n
		c.setDirty(i, c.isDirty(last))
		if n.prev >= 0 {
			c.nodes[n.prev].next = i
		} else {
			c.head = i
		}
		if n.next >= 0 {
			c.nodes[n.next].prev = i
		} else {
			c.tail = i
		}
	}
	c.nodes = c.nodes[:len(c.nodes)-1]
	return dirty
}

// Access looks up l, promoting it on a hit and inserting it on a miss.
// If capacity is zero the access always misses and nothing is inserted.
// At most one eviction results.
func (c *CapLRU) Access(l addr.Line, write bool) (hit bool, ev Eviction, evicted bool) {
	if i := c.find(l); i >= 0 {
		c.Hits++
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		if write {
			c.setDirty(i, true)
		}
		return true, Eviction{}, false
	}
	c.Misses++
	if c.capacity == 0 {
		return false, Eviction{}, false
	}
	var i int32
	if n := len(c.nodes); n >= c.capacity {
		// Full: the LRU line leaves and l takes its slot.
		i = c.tail
		ev = Eviction{Line: c.nodes[i].line(), Dirty: c.isDirty(i)}
		evicted = true
		c.detach(i)
	} else {
		if 2*(n+1) > len(c.buckets) {
			c.rehash(2 * len(c.buckets))
		}
		i = c.push()
	}
	c.nodes[i].lo, c.nodes[i].hi = uint32(l), uint32(l>>32)
	c.setDirty(i, write)
	c.hash(i, l)
	c.pushFront(i)
	return false, ev, evicted
}

// Writeback marks l dirty if resident, reporting presence. It neither
// inserts nor promotes; absent lines must be written to memory.
func (c *CapLRU) Writeback(l addr.Line) bool {
	i := c.find(l)
	if i >= 0 {
		c.setDirty(i, true)
	}
	return i >= 0
}

// Resize changes the capacity, evicting LRU lines as needed, and returns
// the number of lines evicted and how many of them were dirty (the
// writebacks a shrink costs). A node array left more than twice the new
// capacity is reallocated to the resident lines, and an index more than
// four times the capacity is rebuilt at load factor 1/2 or less.
func (c *CapLRU) Resize(capacity int) (lines, dirty int) {
	c.capacity = capacity
	for len(c.nodes) > capacity {
		if c.removeLRU() {
			dirty++
		}
		lines++
	}
	if cap(c.nodes) > max(minNodes, 2*capacity) {
		c.realloc(len(c.nodes))
	}
	if len(c.buckets) > max(minBuckets, 4*capacity) {
		n := minBuckets
		for n < 2*len(c.nodes) {
			n *= 2
		}
		c.rehash(n)
	}
	return lines, dirty
}

// InvalidateAll empties the store and releases its arrays, returning the
// number of lines dropped and how many of them were dirty.
func (c *CapLRU) InvalidateAll() (lines, dirty int) {
	lines = len(c.nodes)
	for i := range int32(lines) {
		if c.isDirty(i) {
			dirty++
		}
	}
	c.setBuckets(minBuckets)
	c.nodes, c.dirty = nil, nil
	c.head, c.tail = -1, -1
	return lines, dirty
}
