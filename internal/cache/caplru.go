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
// Nodes live in a slice with an intrusive doubly-linked list and a free
// list, so steady-state operation does not allocate. The line index is
// intrusive too: buckets holds the head node of each hash chain and
// capNode.hnext links the chain, so a hit touches one bucket and one node
// (a Go map probe hashes through the runtime and touches more memory).
type CapLRU struct {
	capacity int
	buckets  []int32 // chain heads, -1 when empty; len is a power of two
	shift    uint    // 64 - log2(len(buckets))
	nodes    []capNode
	free     []int32
	head     int32 // MRU; -1 when empty
	tail     int32 // LRU; -1 when empty

	Hits   uint64
	Misses uint64
}

type capNode struct {
	line       addr.Line
	prev, next int32
	hnext      int32 // next node in the same hash chain; -1 ends it
	dirty      bool
}

// minBuckets is the initial (and smallest) index size.
const minBuckets = 8

// NewCapLRU creates a store with the given capacity in lines (may be 0).
func NewCapLRU(capacity int) *CapLRU {
	c := &CapLRU{capacity: capacity, head: -1, tail: -1}
	c.setBuckets(minBuckets)
	return c
}

// Capacity returns the current capacity in lines.
func (c *CapLRU) Capacity() int { return c.capacity }

// Size returns the number of resident lines.
func (c *CapLRU) Size() int { return len(c.nodes) - len(c.free) }

// setBuckets replaces the index with n empty chains (n a power of two).
func (c *CapLRU) setBuckets(n int) {
	c.buckets = make([]int32, n)
	for i := range c.buckets {
		c.buckets[i] = -1
	}
	c.shift = 64 - uint(bits.TrailingZeros(uint(n)))
}

// bucket is Fibonacci hashing: the top bits of the line times 2^64/φ.
func (c *CapLRU) bucket(l addr.Line) uint64 {
	return uint64(l) * 0x9E3779B97F4A7C15 >> c.shift
}

// find returns the node holding l, or -1.
func (c *CapLRU) find(l addr.Line) int32 {
	i := c.buckets[c.bucket(l)]
	for i >= 0 && c.nodes[i].line != l {
		i = c.nodes[i].hnext
	}
	return i
}

// hash links node i at the head of its line's chain.
func (c *CapLRU) hash(i int32) {
	b := &c.buckets[c.bucket(c.nodes[i].line)]
	c.nodes[i].hnext = *b
	*b = i
}

// unhash removes node i from its line's chain.
func (c *CapLRU) unhash(i int32) {
	p := &c.buckets[c.bucket(c.nodes[i].line)]
	for *p != i {
		p = &c.nodes[*p].hnext
	}
	*p = c.nodes[i].hnext
}

// grow doubles the index once the load factor would pass 1/2, rehashing
// every resident node by walking the LRU list.
func (c *CapLRU) grow() {
	c.setBuckets(2 * len(c.buckets))
	for i := c.head; i >= 0; i = c.nodes[i].next {
		c.hash(i)
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

func (c *CapLRU) alloc(l addr.Line, dirty bool) int32 {
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
		c.nodes[i] = capNode{line: l, dirty: dirty}
	} else {
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, capNode{line: l, dirty: dirty})
	}
	return i
}

// evictLRU removes the least-recently-used line and returns it.
func (c *CapLRU) evictLRU() Eviction {
	i := c.tail
	n := c.nodes[i]
	c.unlink(i)
	c.unhash(i)
	c.free = append(c.free, i)
	return Eviction{Line: n.line, Dirty: n.dirty}
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
			c.nodes[i].dirty = true
		}
		return true, Eviction{}, false
	}
	c.Misses++
	if c.capacity == 0 {
		return false, Eviction{}, false
	}
	if n := c.Size(); n >= c.capacity {
		ev = c.evictLRU()
		evicted = true
	} else if 2*(n+1) > len(c.buckets) {
		c.grow()
	}
	i := c.alloc(l, write)
	c.hash(i)
	c.pushFront(i)
	return false, ev, evicted
}

// Writeback marks l dirty if resident, reporting presence. It neither
// inserts nor promotes; absent lines must be written to memory.
func (c *CapLRU) Writeback(l addr.Line) bool {
	i := c.find(l)
	if i >= 0 {
		c.nodes[i].dirty = true
	}
	return i >= 0
}

// Contains reports whether l is resident, without updating LRU state.
func (c *CapLRU) Contains(l addr.Line) bool { return c.find(l) >= 0 }

// Resize changes the capacity, evicting LRU lines as needed. The evicted
// lines are returned so callers can account for writebacks/invalidations.
func (c *CapLRU) Resize(capacity int) []Eviction {
	c.capacity = capacity
	var evs []Eviction
	for c.Size() > capacity {
		evs = append(evs, c.evictLRU())
	}
	return evs
}

// InvalidateAll empties the store, returning the number of lines dropped
// and how many of them were dirty.
func (c *CapLRU) InvalidateAll() (lines, dirty int) {
	lines = c.Size()
	for i := c.head; i >= 0; i = c.nodes[i].next {
		if c.nodes[i].dirty {
			dirty++
		}
	}
	c.setBuckets(minBuckets)
	c.nodes = c.nodes[:0]
	c.free = c.free[:0]
	c.head, c.tail = -1, -1
	return lines, dirty
}

// ForEach calls fn for every resident line, MRU to LRU order.
func (c *CapLRU) ForEach(fn func(l addr.Line)) {
	for i := c.head; i >= 0; i = c.nodes[i].next {
		fn(c.nodes[i].line)
	}
}
