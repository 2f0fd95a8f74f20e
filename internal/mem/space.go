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
	// numClasses covers power-of-two size classes 16B..16KB (requests at
	// or above largeCutoff go to the page allocator, but a rounded class
	// can reach largeCutoff itself).
	numClasses = 11
)

type arenaKey struct {
	pool PoolID
	cp   Callpoint
}

type arena struct {
	pool PoolID
	cp   Callpoint
	base addr.Addr
	next addr.Addr // bump pointer
	free [numClasses][]addr.Addr
	// freePages holds runs of freed whole pages for reuse.
	freePages []pageRun

	BytesLive uint64
	BytesPeak uint64
}

type pageRun struct {
	start addr.Addr
	pages uint64
}

// Space is a simulated virtual address space with pool-aware allocation.
type Space struct {
	arenas []*arena
	byKey  map[arenaKey]int32
	sizes  map[addr.Addr]uint64 // live allocation sizes, for Free/Realloc
	pools  []PoolInfo
}

// PoolInfo describes a created pool.
type PoolInfo struct {
	ID   PoolID
	Name string
}

// NewSpace creates an empty address space with the default pool in place.
func NewSpace() *Space {
	s := &Space{
		byKey: make(map[arenaKey]int32),
		sizes: make(map[addr.Addr]uint64),
	}
	s.pools = append(s.pools, PoolInfo{ID: DefaultPool, Name: "default"})
	return s
}

// PoolCreate creates a new pool and returns its id (the paper's
// pool_create).
func (s *Space) PoolCreate(name string) PoolID {
	id := PoolID(len(s.pools))
	if name == "" {
		name = fmt.Sprintf("pool%d", id)
	}
	s.pools = append(s.pools, PoolInfo{ID: id, Name: name})
	return id
}

// Pools returns descriptors for all created pools (including default).
func (s *Space) Pools() []PoolInfo { return s.pools }

// PoolName returns the name of pool p.
func (s *Space) PoolName(p PoolID) string {
	if int(p) < len(s.pools) {
		return s.pools[p].Name
	}
	return fmt.Sprintf("pool%d", p)
}

func (s *Space) arenaFor(pool PoolID, cp Callpoint) *arena {
	k := arenaKey{pool, cp}
	if i, ok := s.byKey[k]; ok {
		return s.arenas[i]
	}
	id := int32(len(s.arenas))
	// Arena 0 would start at address 0; skip it so address 0 stays
	// invalid (a nil-like sentinel).
	base := addr.Addr(uint64(id+1) << arenaShift)
	a := &arena{pool: pool, cp: cp, base: base, next: base}
	s.arenas = append(s.arenas, a)
	s.byKey[k] = id
	return a
}

// sizeClass returns the class index and rounded size for a small request.
func sizeClass(size uint64) (int, uint64) {
	c := 0
	sz := uint64(minAlloc)
	for sz < size {
		sz <<= 1
		c++
	}
	return c, sz
}

// Malloc allocates size bytes from the given pool (pool_malloc). The
// callpoint tags the allocation site for WhirlTool profiling; use
// NoCallpoint when not profiling.
func (s *Space) Malloc(size uint64, pool PoolID, cp Callpoint) addr.Addr {
	if size == 0 {
		size = minAlloc
	}
	a := s.arenaFor(pool, cp)
	var p addr.Addr
	if size >= largeCutoff {
		pages := addr.PagesFor(size)
		p = a.allocPages(pages)
		size = pages * addr.PageBytes
	} else {
		var c int
		c, size = sizeClass(size)
		if n := len(a.free[c]); n > 0 {
			p = a.free[c][n-1]
			a.free[c] = a.free[c][:n-1]
		} else {
			// Avoid small allocations straddling a page boundary, so a
			// page never mixes arenas (it can't) nor partial objects in
			// confusing ways.
			if off := uint64(a.next) % addr.PageBytes; off+size > addr.PageBytes {
				a.next += addr.Addr(addr.PageBytes - off)
			}
			p = a.next
			a.next += addr.Addr(size)
		}
	}
	a.BytesLive += size
	if a.BytesLive > a.BytesPeak {
		a.BytesPeak = a.BytesLive
	}
	s.sizes[p] = size
	return p
}

func (a *arena) allocPages(pages uint64) addr.Addr {
	// First-fit over freed page runs.
	for i, run := range a.freePages {
		if run.pages >= pages {
			p := run.start
			if run.pages == pages {
				a.freePages = append(a.freePages[:i], a.freePages[i+1:]...)
			} else {
				a.freePages[i].start += addr.Addr(pages * addr.PageBytes)
				a.freePages[i].pages -= pages
			}
			return p
		}
	}
	// Bump to a fresh page boundary.
	if off := uint64(a.next) % addr.PageBytes; off != 0 {
		a.next += addr.Addr(addr.PageBytes - off)
	}
	p := a.next
	a.next += addr.Addr(pages * addr.PageBytes)
	return p
}

// Free releases an allocation made by Malloc.
func (s *Space) Free(p addr.Addr) {
	size, ok := s.sizes[p]
	if !ok {
		panic(fmt.Sprintf("mem: Free of unknown address %#x", uint64(p)))
	}
	delete(s.sizes, p)
	a := s.arenaOf(p)
	a.BytesLive -= size
	if size >= addr.PageBytes && uint64(p)%addr.PageBytes == 0 {
		a.freePages = append(a.freePages, pageRun{p, size / addr.PageBytes})
		return
	}
	c, _ := sizeClass(size)
	a.free[c] = append(a.free[c], p)
}

// Realloc grows or shrinks an allocation, possibly moving it.
func (s *Space) Realloc(p addr.Addr, size uint64) addr.Addr {
	old, ok := s.sizes[p]
	if !ok {
		panic(fmt.Sprintf("mem: Realloc of unknown address %#x", uint64(p)))
	}
	if size <= old {
		return p
	}
	a := s.arenaOf(p)
	np := s.Malloc(size, a.pool, a.cp)
	s.Free(p)
	return np
}

// Calloc allocates zeroed memory (zeroing is implicit in simulation).
func (s *Space) Calloc(n, elemSize uint64, pool PoolID, cp Callpoint) addr.Addr {
	return s.Malloc(n*elemSize, pool, cp)
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

// CallpointOf returns the allocation-site tag of address p.
func (s *Space) CallpointOf(p addr.Addr) Callpoint {
	return s.arenaOf(p).cp
}

// CallpointOfLine returns the allocation-site tag of a line address.
func (s *Space) CallpointOfLine(l addr.Line) Callpoint {
	return s.arenaOf(addr.LineAddr(l)).cp
}

// PoolBytes returns the peak bytes held by each pool, indexed by PoolID.
func (s *Space) PoolBytes() []uint64 {
	out := make([]uint64, len(s.pools))
	for _, a := range s.arenas {
		out[a.pool] += a.BytesPeak
	}
	return out
}

// NumPools returns the number of pools including the default pool.
func (s *Space) NumPools() int { return len(s.pools) }
