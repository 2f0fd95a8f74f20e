package cache

import (
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
// buckets in several ways.
var oracleLines = func() []addr.Line {
	ls := make([]addr.Line, 64)
	for i := range ls {
		ls[i] = addr.Line(uint64(i)<<40 | uint64(i%7)<<20 | uint64(i))
	}
	return ls
}()

// runOracle decodes ops as an op stream and replays it on a CapLRU and a
// refLRU, failing at the first step where they differ. The first byte is
// the initial capacity; each later op is a kind byte plus one argument
// byte: Access (read or write), Writeback, Resize to 0..47 lines, or
// InvalidateAll. Capacities up to 47 over 64 lines give hits, misses and
// evictions, and take the index through several doublings.
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
	if n := unsafe.Sizeof(capNode{}); n != 24 {
		t.Fatalf("capNode is %d bytes, want 24", n)
	}
}
