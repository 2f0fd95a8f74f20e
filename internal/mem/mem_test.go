package mem

import (
	"testing"
	"testing/quick"

	"whirlpool/internal/addr"
)

func TestPoolCreate(t *testing.T) {
	s := NewSpace()
	p1 := s.PoolCreate()
	p2 := s.PoolCreate()
	if p1 == p2 || p1 == DefaultPool || p2 == DefaultPool {
		t.Fatalf("pool ids not distinct: %d %d", p1, p2)
	}
}

func TestMallocPoolOwnership(t *testing.T) {
	s := NewSpace()
	p1 := s.PoolCreate()
	p2 := s.PoolCreate()
	a1 := s.Malloc(1000, p1, NoCallpoint)
	a2 := s.Malloc(1000, p2, NoCallpoint)
	if s.PoolOf(a1) != p1 || s.PoolOf(a2) != p2 {
		t.Fatal("PoolOf mismatch")
	}
	// Every line of each allocation belongs to its pool.
	for off := uint64(0); off < 1000; off += 64 {
		if s.PoolOfLine(addr.LineOf(a1+addr.Addr(off))) != p1 {
			t.Fatal("line ownership violated")
		}
	}
}

func TestPagesNeverShared(t *testing.T) {
	// The paper's allocator contract: a page belongs to exactly one pool.
	s := NewSpace()
	p1 := s.PoolCreate()
	p2 := s.PoolCreate()
	pages := make(map[addr.Page]PoolID)
	for i := 0; i < 200; i++ {
		pool := p1
		if i%2 == 1 {
			pool = p2
		}
		a := s.Malloc(100, pool, NoCallpoint)
		for off := uint64(0); off < 100; off += 64 {
			pg := addr.PageOf(a + addr.Addr(off))
			if prev, ok := pages[pg]; ok && prev != pool {
				t.Fatalf("page %d shared by pools %d and %d", pg, prev, pool)
			}
			pages[pg] = pool
		}
	}
}

func TestSmallAllocationsDoNotStraddlePages(t *testing.T) {
	s := NewSpace()
	for i := 0; i < 1000; i++ {
		a := s.Malloc(96, DefaultPool, NoCallpoint) // rounds to 128
		first := addr.PageOf(a)
		last := addr.PageOf(a + 127)
		if first != last {
			t.Fatalf("allocation %d straddles pages", i)
		}
	}
}

func TestLargeAllocationsPageAligned(t *testing.T) {
	s := NewSpace()
	a := s.Malloc(100*addr.KB, DefaultPool, NoCallpoint)
	if uint64(a)%addr.PageBytes != 0 {
		t.Fatalf("large allocation not page aligned: %#x", uint64(a))
	}
}

func TestCallpointTracking(t *testing.T) {
	s := NewSpace()
	a := s.Malloc(100, DefaultPool, Callpoint(7))
	b := s.Malloc(100, DefaultPool, Callpoint(9))
	if s.CallpointOfLine(addr.LineOf(a)) != 7 || s.CallpointOfLine(addr.LineOf(b)) != 9 {
		t.Fatal("callpoint mismatch")
	}
	// Different callpoints must not share pages.
	if addr.PageOf(a) == addr.PageOf(b) {
		t.Fatal("different callpoints share a page")
	}
}

func TestQuickPoolOfAlwaysMatchesAllocation(t *testing.T) {
	s := NewSpace()
	pools := []PoolID{DefaultPool, s.PoolCreate(), s.PoolCreate(), s.PoolCreate()}
	f := func(sizeRaw uint16, poolRaw, cpRaw uint8) bool {
		size := uint64(sizeRaw)%8192 + 1
		pool := pools[int(poolRaw)%len(pools)]
		cp := Callpoint(cpRaw % 4)
		a := s.Malloc(size, pool, cp)
		return s.PoolOf(a) == pool && s.CallpointOfLine(addr.LineOf(a)) == cp &&
			s.PoolOf(a+addr.Addr(size-1)) == pool
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMallocLayout pins Malloc's address arithmetic: size-class rounding,
// no page straddling below 16 KB, whole aligned pages from 16 KB up, and
// one arena per (pool, callpoint) in first-use order. Traces are built
// from these addresses, so any change here moves every trace.
func TestMallocLayout(t *testing.T) {
	s := NewSpace()
	calls := []struct {
		size uint64
		pool PoolID
		cp   Callpoint
		want addr.Addr
	}{
		{0, DefaultPool, NoCallpoint, 0x1000000000},
		{1, DefaultPool, NoCallpoint, 0x1000000010},
		{17, DefaultPool, NoCallpoint, 0x1000000020},
		{96, DefaultPool, NoCallpoint, 0x1000000040},
		{3000, DefaultPool, NoCallpoint, 0x1000001000},
		{100, DefaultPool, NoCallpoint, 0x1000002000},
		{16*addr.KB - 1, DefaultPool, NoCallpoint, 0x1000003000},
		{16 * addr.KB, DefaultPool, NoCallpoint, 0x1000007000},
		{16*addr.KB + 1, DefaultPool, NoCallpoint, 0x100000b000},
		{100 * addr.KB, 1, NoCallpoint, 0x2000000000},
		{64, 1, NoCallpoint, 0x2000019000},
		{2000, 2, 5, 0x3000000000},
		{2000, 2, 9, 0x4000000000},
		{addr.MB + 1, DefaultPool, 5, 0x5000000000},
		{48, DefaultPool, NoCallpoint, 0x1000010000},
		{5000, 1, NoCallpoint, 0x200001a000},
		{1, DefaultPool, 9, 0x6000000000},
		{40, 2, 5, 0x3000000800},
	}
	for i, c := range calls {
		got := s.Malloc(c.size, c.pool, c.cp)
		if got != c.want {
			t.Fatalf("call %d: Malloc(%d, %d, %d) = %#x, want %#x", i, c.size, c.pool, c.cp, uint64(got), uint64(c.want))
		}
		if s.PoolOf(got) != c.pool || s.CallpointOfLine(addr.LineOf(got)) != c.cp {
			t.Fatalf("call %d: %#x classifies as pool %d callpoint %d", i, uint64(got), s.PoolOf(got), s.CallpointOfLine(addr.LineOf(got)))
		}
	}
}
