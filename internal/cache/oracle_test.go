package cache

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"whirlpool/internal/addr"
)

// refLRU is a deliberately naive LRU: a slice in MRU-to-LRU order,
// searched linearly. It shares no code with CapLRU, so the two agreeing
// on every step is evidence that CapLRU's list and index are right.
type refLRU struct {
	capacity int
	lines    []Eviction // resident lines and dirty bits, MRU first
}

func (r *refLRU) find(l addr.Line) int {
	return slices.IndexFunc(r.lines, func(e Eviction) bool { return e.Line == l })
}

func (r *refLRU) evictLRU() Eviction {
	n := len(r.lines) - 1
	ev := r.lines[n]
	r.lines = r.lines[:n]
	return ev
}

func (r *refLRU) access(l addr.Line, write bool) (bool, Eviction, bool) {
	if i := r.find(l); i >= 0 {
		e := r.lines[i]
		e.Dirty = e.Dirty || write
		r.lines = slices.Insert(slices.Delete(r.lines, i, i+1), 0, e)
		return true, Eviction{}, false
	}
	if r.capacity == 0 {
		return false, Eviction{}, false
	}
	var ev Eviction
	evicted := len(r.lines) >= r.capacity
	if evicted {
		ev = r.evictLRU()
	}
	r.lines = slices.Insert(r.lines, 0, Eviction{Line: l, Dirty: write})
	return false, ev, evicted
}

func (r *refLRU) writeback(l addr.Line) bool {
	i := r.find(l)
	if i >= 0 {
		r.lines[i].Dirty = true
	}
	return i >= 0
}

func (r *refLRU) resize(capacity int) (lines, dirty int) {
	r.capacity = capacity
	for len(r.lines) > capacity {
		if r.evictLRU().Dirty {
			dirty++
		}
		lines++
	}
	return lines, dirty
}

func (r *refLRU) invalidateAll() (lines, dirty int) {
	for _, e := range r.lines {
		if e.Dirty {
			dirty++
		}
	}
	lines = len(r.lines)
	r.lines = r.lines[:0]
	return lines, dirty
}

// oracleLines is the line alphabet of an op stream: 64 lines whose low
// and high bits both vary, so they spread over (and collide in) the index
// buckets in several ways; 8 lines at or above 2^63 that agree in their
// low 32 bits; 8 lines that agree with one of the first 8 in their low
// 32 bits but not in their high bits; and the 4 lines at the top of the
// range, 2^64-1 included. The last 20 hold CapLRU's two-word line and
// SetAssoc's validity to the reference.
var oracleLines = func() []addr.Line {
	ls := make([]addr.Line, 84)
	for i := range 64 {
		ls[i] = addr.Line(uint64(i)<<40 | uint64(i%7)<<20 | uint64(i))
	}
	for i := range 8 {
		ls[64+i] = addr.Line(1<<63 | uint64(i)<<33 | 5)
		ls[72+i] = addr.Line(uint64(i+1)<<48 | uint64(uint32(ls[i])))
	}
	for i := range 4 {
		ls[80+i] = addr.Line(math.MaxUint64 - uint64(i))
	}
	return ls
}()

// ForEach calls fn for every resident line, MRU to LRU order.
func (c *CapLRU) ForEach(fn func(l addr.Line)) {
	for i := c.head; i >= 0; i = c.nodes[i].next {
		fn(c.nodes[i].line())
	}
}

// Contains reports whether l is resident, without updating LRU state.
func (c *CapLRU) Contains(l addr.Line) bool { return c.find(l) >= 0 }

// runOracle decodes ops as an op stream and replays it on a CapLRU and a
// refLRU, failing at the first step where they differ. The first byte is
// the initial capacity; each later op is a kind byte plus one argument
// byte: Access (read or write), Writeback, Resize to 0..47 lines, or
// InvalidateAll. Capacities up to 47 over 80 lines give hits, misses and
// evictions, and take the index through several doublings and the node
// array through growth, swap-removal and release.
func runOracle(t testing.TB, ops []byte) {
	if len(ops) == 0 {
		return
	}
	capacity := int(ops[0]) % 48
	c, r := NewCapLRU(capacity), &refLRU{capacity: capacity}
	var hits, misses uint64
	for step := 0; 1+2*step+1 < len(ops); step++ {
		kind, arg := ops[1+2*step], ops[2+2*step]
		l := oracleLines[int(arg)%len(oracleLines)]
		switch k := kind % 16; {
		case k < 10:
			write := k >= 6
			hit, ev, evicted := c.Access(l, write)
			rhit, rev, revicted := r.access(l, write)
			if hit != rhit || evicted != revicted || ev != rev {
				t.Fatalf("step %d: Access(%#x, %v) = (%v, %+v, %v), reference (%v, %+v, %v)",
					step, l, write, hit, ev, evicted, rhit, rev, revicted)
			}
			if rhit {
				hits++
			} else {
				misses++
			}
		case k < 13:
			if got, want := c.Writeback(l), r.writeback(l); got != want {
				t.Fatalf("step %d: Writeback(%#x) = %v, reference %v", step, l, got, want)
			}
		case k < 15:
			n := int(arg) % 48
			gl, gd := c.Resize(n)
			wl, wd := r.resize(n)
			if gl != wl || gd != wd {
				t.Fatalf("step %d: Resize(%d) = (%d, %d), reference (%d, %d)", step, n, gl, gd, wl, wd)
			}
		default:
			gl, gd := c.InvalidateAll()
			wl, wd := r.invalidateAll()
			if gl != wl || gd != wd {
				t.Fatalf("step %d: InvalidateAll = (%d, %d), reference (%d, %d)", step, gl, gd, wl, wd)
			}
		}
		if c.Size() != len(r.lines) {
			t.Fatalf("step %d: Size = %d, reference %d", step, c.Size(), len(r.lines))
		}
		var order, want []addr.Line
		c.ForEach(func(l addr.Line) { order = append(order, l) })
		for _, e := range r.lines {
			want = append(want, e.Line)
			if !c.Contains(e.Line) {
				t.Fatalf("step %d: resident line %#x not found by Contains", step, e.Line)
			}
		}
		if !slices.Equal(order, want) {
			t.Fatalf("step %d: ForEach order %#x, reference %#x", step, order, want)
		}
		for i, e := range r.lines {
			if got := c.isDirty(c.find(e.Line)); got != e.Dirty {
				t.Fatalf("step %d: line %#x (MRU position %d) dirty = %v, reference %v", step, e.Line, i, got, e.Dirty)
			}
		}
		if c.Hits != hits || c.Misses != misses {
			t.Fatalf("step %d: Hits/Misses = %d/%d, reference %d/%d", step, c.Hits, c.Misses, hits, misses)
		}
	}
}

// randomOps returns a seeded op stream of n ops for runOracle.
func randomOps(seed uint64, n int) []byte {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	ops := make([]byte, 1+2*n)
	for i := range ops {
		ops[i] = byte(rng.Uint32())
	}
	return ops
}

func TestCapLRUMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		runOracle(t, randomOps(seed, 1000))
	}
}

// FuzzCapLRU runs fuzzed op streams against the reference LRU. The seed
// corpus runs under `go test`; `make fuzz` explores beyond it.
func FuzzCapLRU(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 1})                 // zero capacity: misses, no inserts
	f.Add([]byte{2, 0, 1, 0, 2, 0, 3, 0, 1})     // streaming past capacity 2
	f.Add([]byte{8, 6, 1, 10, 1, 13, 0, 0, 1})   // dirty line, writeback, resize to 0
	f.Add([]byte{47, 6, 5, 15, 0, 14, 40, 0, 5}) // invalidate, then grow
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(randomOps(seed, 200))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runOracle(t, ops) })
}

func TestCapNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(capNode{}); n != 20 {
		t.Fatalf("capNode is %d bytes, want 20", n)
	}
}

// checkBounds fails unless c's arrays are within their bounds: the node
// array holds the resident lines and at most max(minNodes, room) nodes,
// the dirty bitset covers it, and the index keeps a load factor of at
// most 1/2 and at most max(minBuckets, 4·capacity) chains.
func checkBounds(t *testing.T, c *CapLRU, room int, where string) {
	t.Helper()
	if len(c.nodes) > c.capacity {
		t.Fatalf("%s: %d resident lines over capacity %d", where, len(c.nodes), c.capacity)
	}
	if n := cap(c.nodes); n > max(minNodes, room) {
		t.Fatalf("%s: cap(nodes) = %d, bound max(%d, %d)", where, n, minNodes, room)
	}
	if 64*len(c.dirty) < cap(c.nodes) {
		t.Fatalf("%s: %d dirty words for %d nodes", where, len(c.dirty), cap(c.nodes))
	}
	if n := len(c.buckets); 2*len(c.nodes) > n || n > max(minBuckets, 4*c.capacity) {
		t.Fatalf("%s: %d buckets for %d lines at capacity %d", where, n, len(c.nodes), c.capacity)
	}
}

// TestCapLRUBoundedMemory streams three times the capacity in distinct
// lines through stores of several capacities and checks that the arrays
// never outgrow the capacity, that a shrink releases all but twice the
// new capacity, that InvalidateAll releases everything, and that a full
// store's accesses allocate nothing.
func TestCapLRUBoundedMemory(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, capacity := range []int{0, 1, 5, minNodes, 100, 1000, 5000} {
		c := NewCapLRU(capacity)
		for i := range 3 * max(capacity, minNodes) {
			c.Access(addr.Line(rng.Uint64()>>1), i%3 == 0)
			checkBounds(t, c, capacity, "fill")
		}
		for _, n := range []int{capacity / 3, capacity / 10, 2 * capacity, 0, capacity} {
			c.Resize(n)
			checkBounds(t, c, 2*n, "Resize")
			for i := range 3 * max(n, minNodes) {
				c.Access(addr.Line(rng.Uint64()>>1), i%3 == 0)
				checkBounds(t, c, 2*n, "refill")
			}
		}
		if lines, _ := c.InvalidateAll(); lines != capacity {
			t.Fatalf("capacity %d: InvalidateAll dropped %d lines", capacity, lines)
		}
		if c.nodes != nil || c.dirty != nil || len(c.buckets) != minBuckets {
			t.Fatalf("capacity %d: InvalidateAll kept cap(nodes) = %d, %d dirty words, %d buckets",
				capacity, cap(c.nodes), len(c.dirty), len(c.buckets))
		}
	}

	const capacity = 1 << 12
	c := NewCapLRU(capacity)
	lines := make([]addr.Line, 1<<14)
	for i := range lines {
		lines[i] = addr.Line(rng.IntN(2 * capacity))
		c.Access(lines[i], i%4 == 0)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(lines), func() {
		c.Access(lines[i], i%4 == 0)
		i = (i + 1) % len(lines)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Access allocates %.2f times per call", allocs)
	}
}
