package cache

import (
	"math"
	"testing"
	"testing/quick"

	"whirlpool/internal/addr"
)

func TestSetAssocBasicHitMiss(t *testing.T) {
	c := NewSetAssoc(64*1024, 8, LRU)
	if hit, _, _ := c.Access(addr.Line(1), false); hit {
		t.Fatal("first access should miss")
	}
	if hit, _, _ := c.Access(addr.Line(1), false); !hit {
		t.Fatal("second access should hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats: hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestSetAssocLRUWithinWorkingSet(t *testing.T) {
	c := NewSetAssoc(64*1024, 8, LRU)
	n := 64 * 1024 / addr.LineBytes / 2 // half the lines: comfortably fits
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			c.Access(addr.Line(i), false)
		}
	}
	// After the cold pass everything should hit: XOR-folded indexing
	// spreads contiguous lines perfectly.
	want := uint64(2 * n)
	if c.Hits != want {
		t.Fatalf("hits=%d, want %d", c.Hits, want)
	}
}

func TestSetAssocEvictionReported(t *testing.T) {
	c := NewSetAssoc(1024, 2, LRU) // 16 lines, 8 sets x 2 ways
	evictions := 0
	for i := 0; i < 1000; i++ {
		_, _, evicted := c.Access(addr.Line(i), false)
		if evicted {
			evictions++
		}
	}
	if evictions == 0 {
		t.Fatal("streaming through a tiny cache must evict")
	}
}

func TestSetAssocDirtyEviction(t *testing.T) {
	c := NewSetAssoc(1024, 2, LRU)
	dirtyEv := 0
	for i := 0; i < 1000; i++ {
		_, ev, evicted := c.Access(addr.Line(i), true)
		if evicted && ev.Dirty {
			dirtyEv++
		}
	}
	if dirtyEv == 0 {
		t.Fatal("writes must produce dirty evictions")
	}
}

func TestSetAssocWriteback(t *testing.T) {
	c := NewSetAssoc(64*1024, 8, LRU)
	c.Access(addr.Line(5), false)
	if !c.Writeback(addr.Line(5)) {
		t.Fatal("writeback of resident line should succeed")
	}
	if c.Writeback(addr.Line(999999)) {
		t.Fatal("writeback of absent line should fail")
	}
	// The dirtied line must produce a dirty eviction when invalidated.
	if present, dirty := c.Invalidate(addr.Line(5)); !present || !dirty {
		t.Fatalf("invalidate: present=%v dirty=%v", present, dirty)
	}
}

func TestSetAssocInvalidate(t *testing.T) {
	c := NewSetAssoc(64*1024, 8, LRU)
	c.Access(addr.Line(3), false)
	if present, _ := c.Invalidate(addr.Line(3)); !present {
		t.Fatal("line should be present")
	}
	if c.Writeback(addr.Line(3)) {
		t.Fatal("line should be gone after invalidate")
	}
	if present, _ := c.Invalidate(addr.Line(3)); present {
		t.Fatal("double invalidate should report absent")
	}
}

// DRRIP should protect against thrashing: a scanning pattern larger than
// the cache mixed with a small hot set should keep the hot set resident
// much better than LRU does.
func TestDRRIPScanResistance(t *testing.T) {
	run := func(kind Repl) float64 {
		c := NewSetAssoc(64*1024, 16, kind)
		hot := 256     // lines, fits easily
		scan := 100000 // much larger than the 1024-line cache
		hotHits, hotAccs := 0, 0
		scanPos := 0
		for i := 0; i < 400000; i++ {
			if i%4 == 0 {
				hotAccs++
				if hit, _, _ := c.Access(addr.Line(i/4%hot), false); hit {
					hotHits++
				}
			} else {
				c.Access(addr.Line(1_000_000+scanPos), false)
				scanPos = (scanPos + 1) % scan
			}
		}
		return float64(hotHits) / float64(hotAccs)
	}
	lru := run(LRU)
	drrip := run(DRRIP)
	if drrip <= lru {
		t.Fatalf("DRRIP (%.3f) should beat LRU (%.3f) under scanning", drrip, lru)
	}
}

func TestSetAssocBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	NewSetAssoc(12288, 2, LRU) // 192 lines / 2 ways = 96 sets: not a power of two
}

// TestSetAssocTopLine checks that line 2^64-1 is an ordinary line under
// every policy and both LRU layouts: absent from an empty cache, resident
// once accessed, and gone once invalidated. A "trace"-sourced app can
// replay any 64-bit line.
func TestSetAssocTopLine(t *testing.T) {
	const top = addr.Line(math.MaxUint64)
	for _, g := range []struct {
		ways int
		kind Repl
	}{{8, LRU}, {16, LRU}, {8, SRRIP}, {8, BRRIP}, {8, DRRIP}} {
		c := NewSetAssoc(64*addr.LineBytes, g.ways, g.kind)
		if hit, _, evicted := c.Access(top, false); hit || evicted {
			t.Fatalf("%d-way %v: empty cache: Access = (hit %v, evicted %v)", g.ways, g.kind, hit, evicted)
		}
		if !c.Writeback(top) {
			t.Fatalf("%d-way %v: Writeback of the resident top line missed", g.ways, g.kind)
		}
		if present, dirty := c.Invalidate(top); !present || !dirty {
			t.Fatalf("%d-way %v: Invalidate = (%v, %v), want (true, true)", g.ways, g.kind, present, dirty)
		}
		if c.Writeback(top) {
			t.Fatalf("%d-way %v: Writeback found the invalidated top line", g.ways, g.kind)
		}
		if present, _ := c.Invalidate(top); present {
			t.Fatalf("%d-way %v: invalidated top line still present", g.ways, g.kind)
		}
		if hit, _, _ := c.Access(top, false); hit {
			t.Fatalf("%d-way %v: invalidated top line hit", g.ways, g.kind)
		}
	}
}

func TestCapLRUBasic(t *testing.T) {
	c := NewCapLRU(4)
	for i := 0; i < 4; i++ {
		if hit, _, _ := c.Access(addr.Line(i), false); hit {
			t.Fatal("cold access hit")
		}
	}
	if c.Size() != 4 {
		t.Fatalf("size=%d", c.Size())
	}
	// Access 0..3 again: all hits.
	for i := 0; i < 4; i++ {
		if hit, _, _ := c.Access(addr.Line(i), false); !hit {
			t.Fatalf("line %d should hit", i)
		}
	}
	// Insert 4: evicts LRU (0).
	_, ev, evicted := c.Access(addr.Line(4), false)
	if !evicted || ev.Line != 0 {
		t.Fatalf("expected eviction of line 0, got %v %v", evicted, ev)
	}
	if c.Contains(addr.Line(0)) {
		t.Fatal("line 0 should be gone")
	}
}

func TestCapLRUPromotion(t *testing.T) {
	c := NewCapLRU(3)
	c.Access(addr.Line(1), false)
	c.Access(addr.Line(2), false)
	c.Access(addr.Line(3), false)
	c.Access(addr.Line(1), false) // promote 1
	_, ev, _ := c.Access(addr.Line(4), false)
	if ev.Line != 2 {
		t.Fatalf("expected LRU victim 2, got %d", ev.Line)
	}
}

func TestCapLRUZeroCapacity(t *testing.T) {
	c := NewCapLRU(0)
	hit, _, evicted := c.Access(addr.Line(1), false)
	if hit || evicted {
		t.Fatal("zero-capacity store must always miss, never evict")
	}
	if c.Size() != 0 {
		t.Fatal("zero-capacity store must stay empty")
	}
}

func TestCapLRUDirtyTracking(t *testing.T) {
	c := NewCapLRU(1)
	c.Access(addr.Line(1), true)
	_, ev, evicted := c.Access(addr.Line(2), false)
	if !evicted || !ev.Dirty {
		t.Fatal("dirty line eviction not reported")
	}
}

func TestCapLRUWriteback(t *testing.T) {
	c := NewCapLRU(2)
	c.Access(addr.Line(1), false)
	if !c.Writeback(addr.Line(1)) {
		t.Fatal("writeback should find resident line")
	}
	if c.Writeback(addr.Line(99)) {
		t.Fatal("writeback of absent line should fail")
	}
	c.Access(addr.Line(2), false)
	_, ev, _ := c.Access(addr.Line(3), false)
	if ev.Line != 1 || !ev.Dirty {
		t.Fatalf("evicted %v dirty=%v, want line 1 dirty", ev.Line, ev.Dirty)
	}
}

func TestCapLRUResizeShrink(t *testing.T) {
	c := NewCapLRU(10)
	for i := 0; i < 10; i++ {
		c.Access(addr.Line(i), i%2 == 0)
	}
	// Lines 0..6 go; the even ones were written.
	if lines, dirty := c.Resize(3); lines != 7 || dirty != 4 {
		t.Fatalf("Resize(3) = (%d, %d), want 7 evictions, 4 dirty", lines, dirty)
	}
	if c.Size() != 3 {
		t.Fatalf("size=%d after shrink", c.Size())
	}
	// MRU survivors are 7,8,9.
	for i := 7; i < 10; i++ {
		if !c.Contains(addr.Line(i)) {
			t.Fatalf("line %d should survive shrink", i)
		}
	}
}

func TestCapLRUResizeGrow(t *testing.T) {
	c := NewCapLRU(2)
	c.Access(addr.Line(1), false)
	c.Access(addr.Line(2), false)
	if lines, _ := c.Resize(5); lines != 0 {
		t.Fatal("grow must not evict")
	}
	c.Access(addr.Line(3), false)
	if c.Size() != 3 {
		t.Fatalf("size=%d", c.Size())
	}
}

func TestCapLRUInvalidateAll(t *testing.T) {
	c := NewCapLRU(5)
	c.Access(addr.Line(1), true)
	c.Access(addr.Line(2), false)
	lines, dirty := c.InvalidateAll()
	if lines != 2 || dirty != 1 {
		t.Fatalf("lines=%d dirty=%d", lines, dirty)
	}
	if c.Size() != 0 {
		t.Fatal("store should be empty")
	}
	// Reusable after flush.
	c.Access(addr.Line(3), false)
	if !c.Contains(addr.Line(3)) {
		t.Fatal("store unusable after InvalidateAll")
	}
}

func TestCapLRUForEachOrder(t *testing.T) {
	c := NewCapLRU(3)
	c.Access(addr.Line(1), false)
	c.Access(addr.Line(2), false)
	c.Access(addr.Line(3), false)
	var got []addr.Line
	c.ForEach(func(l addr.Line) { got = append(got, l) })
	if len(got) != 3 || got[0] != 3 || got[2] != 1 {
		t.Fatalf("MRU order wrong: %v", got)
	}
}

// Property: size never exceeds capacity, and a hit never evicts.
func TestQuickCapLRUInvariants(t *testing.T) {
	f := func(ops []uint16, capRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		c := NewCapLRU(capacity)
		for _, op := range ops {
			hit, _, evicted := c.Access(addr.Line(op%64), false)
			if hit && evicted {
				return false
			}
			if c.Size() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CapLRU of capacity >= distinct lines touched never misses
// twice on the same line.
func TestQuickCapLRUNoCapacityMisses(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewCapLRU(256) // >= any distinct count of uint8 lines
		seen := map[addr.Line]bool{}
		for _, op := range ops {
			l := addr.Line(op)
			hit, _, _ := c.Access(l, false)
			if seen[l] && !hit {
				return false
			}
			seen[l] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
