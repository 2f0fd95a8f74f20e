// Package mem implements the Whirlpool memory allocator over a *simulated*
// 64-bit virtual address space.
//
// The paper's allocator (built on Doug Lea's malloc) guarantees that every
// page belongs to exactly one pool at a time, so the virtual memory system
// can classify data. Go's managed runtime cannot tag raw OS pages, so we
// reproduce the same contract on simulated addresses: each (pool,
// callpoint) pair owns a disjoint arena — a large aligned region of the
// simulated address space — and allocations never share a page across
// arenas. Address-to-pool and address-to-callpoint lookups are O(1) bit
// arithmetic, exactly like the paper's TLB-based classification.
//
// Allocation is a bump pointer per arena: the simulated programs lay out
// their data once and never free it, so there are no free lists to keep.
package mem

import (
	"fmt"

	"whirlpool/internal/addr"
)

// PoolID identifies a memory pool. Pool 0 is the default (thread-private)
// pool that untagged allocations land in.
type PoolID int32

// DefaultPool is where plain malloc (no pool) allocations go.
const DefaultPool PoolID = 0

// Callpoint identifies an allocation site (the paper hashes the last two
// return PCs on the stack; workloads provide stable synthetic ids).
type Callpoint uint32

// NoCallpoint marks allocations without callpoint attribution.
const NoCallpoint Callpoint = 0

const (
	// arenaShift gives each arena a 64GB region; arena id = addr >> 36.
	arenaShift = 36
	// ArenaBytes bounds one callpoint's allocations: past it, addresses
	// spill into the next arena and classify as the wrong callpoint.
	ArenaBytes = 1 << arenaShift
	// minAlloc is the minimum allocation granule (dlmalloc-style).
	minAlloc = 16
	// largeCutoff and above are allocated as whole pages.
	largeCutoff = 16 * addr.KB
)

type arenaKey struct {
	pool PoolID
	cp   Callpoint
}

type arena struct {
	pool PoolID
	cp   Callpoint
	next addr.Addr // bump pointer
}

// Space is a simulated virtual address space with pool-aware allocation.
type Space struct {
	arenas []*arena
	byKey  map[arenaKey]int32
	pools  PoolID // pools created so far, including the default pool
}

// NewSpace creates an empty address space with the default pool in place.
func NewSpace() *Space {
	return &Space{byKey: make(map[arenaKey]int32), pools: 1}
}

// PoolCreate creates a new pool and returns its id (the paper's
// pool_create).
func (s *Space) PoolCreate() PoolID {
	s.pools++
	return s.pools - 1
}

func (s *Space) arenaFor(pool PoolID, cp Callpoint) *arena {
	k := arenaKey{pool, cp}
	if i, ok := s.byKey[k]; ok {
		return s.arenas[i]
	}
	id := int32(len(s.arenas))
	// Arena 0 would start at address 0; skip it so address 0 stays
	// invalid (a nil-like sentinel).
	a := &arena{pool: pool, cp: cp, next: addr.Addr(uint64(id+1) << arenaShift)}
	s.arenas = append(s.arenas, a)
	s.byKey[k] = id
	return a
}

// Malloc allocates size bytes from the given pool (pool_malloc). The
// callpoint tags the allocation site for WhirlTool profiling; use
// NoCallpoint when not profiling.
//
// Requests below 16 KB round up to a power of two of at least 16 bytes
// and never straddle a page boundary; larger ones take whole, aligned
// pages.
func (s *Space) Malloc(size uint64, pool PoolID, cp Callpoint) addr.Addr {
	a := s.arenaFor(pool, cp)
	if size >= largeCutoff {
		if off := uint64(a.next) % addr.PageBytes; off != 0 {
			a.next += addr.Addr(addr.PageBytes - off)
		}
		p := a.next
		a.next += addr.Addr(addr.PagesFor(size) * addr.PageBytes)
		return p
	}
	sz := uint64(minAlloc)
	for sz < size {
		sz <<= 1
	}
	if off := uint64(a.next) % addr.PageBytes; off+sz > addr.PageBytes {
		a.next += addr.Addr(addr.PageBytes - off)
	}
	p := a.next
	a.next += addr.Addr(sz)
	return p
}

func (s *Space) arenaOf(p addr.Addr) *arena {
	id := int32(uint64(p)>>arenaShift) - 1
	if id < 0 || int(id) >= len(s.arenas) {
		panic(fmt.Sprintf("mem: address %#x outside any arena", uint64(p)))
	}
	return s.arenas[id]
}

// PoolOf returns the pool owning address p (O(1), like a TLB tag read).
func (s *Space) PoolOf(p addr.Addr) PoolID {
	return s.arenaOf(p).pool
}

// PoolOfLine returns the pool owning a line address.
func (s *Space) PoolOfLine(l addr.Line) PoolID {
	return s.PoolOf(addr.LineAddr(l))
}

// CallpointOfLine returns the allocation-site tag of a line address.
func (s *Space) CallpointOfLine(l addr.Line) Callpoint {
	return s.arenaOf(addr.LineAddr(l)).cp
}
