package cache

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"whirlpool/internal/addr"
)

// refSetLRU is a deliberately naive set-associative LRU cache: one slice
// per set in MRU-to-LRU order, searched linearly. It shares no code with
// SetAssoc (its set index writes the XOR fold out again), so the two
// agreeing on every step is evidence that SetAssoc's indexing, its
// recency-ordered sets, its timestamps and its victim choice are right.
type refSetLRU struct {
	ways int
	sets [][]Eviction // resident lines and dirty bits per set, MRU first
}

func (r *refSetLRU) set(l addr.Line) *[]Eviction {
	n := uint64(len(r.sets))
	shift := uint(bits.TrailingZeros64(n))
	x := uint64(l)
	return &r.sets[(x^x>>shift^x>>(2*shift))%n]
}

func indexOf(s []Eviction, l addr.Line) int {
	return slices.IndexFunc(s, func(e Eviction) bool { return e.Line == l })
}

func (r *refSetLRU) access(l addr.Line, write bool) (bool, Eviction, bool) {
	s := r.set(l)
	if i := indexOf(*s, l); i >= 0 {
		e := (*s)[i]
		e.Dirty = e.Dirty || write
		*s = slices.Insert(slices.Delete(*s, i, i+1), 0, e)
		return true, Eviction{}, false
	}
	var ev Eviction
	evicted := len(*s) == r.ways
	if evicted {
		ev = (*s)[r.ways-1]
		*s = (*s)[:r.ways-1]
	}
	*s = slices.Insert(*s, 0, Eviction{Line: l, Dirty: write})
	return false, ev, evicted
}

func (r *refSetLRU) writeback(l addr.Line) bool {
	s := r.set(l)
	i := indexOf(*s, l)
	if i >= 0 {
		(*s)[i].Dirty = true
	}
	return i >= 0
}

func (r *refSetLRU) invalidate(l addr.Line) (present, dirty bool) {
	s := r.set(l)
	i := indexOf(*s, l)
	if i < 0 {
		return false, false
	}
	dirty = (*s)[i].Dirty
	*s = slices.Delete(*s, i, i+1)
	return true, dirty
}

// setOracleGeoms are the (sets, ways) shapes the oracle picks from: the
// first six have recency-ordered sets, the last three timestamped ones
// (the oracle's 84 lines overfill each of their sets).
var setOracleGeoms = [][2]int{{1, 4}, {2, 2}, {4, 3}, {8, 2}, {16, 4}, {2, 8}, {1, 81}, {2, 25}, {4, 12}}

// resident returns set s's valid lines and dirty bits, most recently
// used first. A recency-ordered set is read in its stored order up to
// its first invalid way, so a valid way behind a gap goes missing and
// fails the comparison; a timestamped set is sorted by timestamp.
func (c *SetAssoc) resident(s int) []Eviction {
	base := s * c.ways
	ways := make([]int, 0, c.ways)
	for w := range c.ways {
		if c.valid(base + w) {
			ways = append(ways, base+w)
		} else if c.ordered {
			break
		}
	}
	if !c.ordered {
		slices.SortFunc(ways, func(a, b int) int { return cmp.Compare(c.ts[b], c.ts[a]) })
	}
	out := make([]Eviction, len(ways))
	for i, w := range ways {
		out[i] = Eviction{Line: addr.Line(c.tags[w] - 1), Dirty: c.flags[w]&wayDirty != 0}
	}
	return out
}

// runSetOracle decodes ops as an op stream and replays it on an LRU
// SetAssoc whose clock starts at clock and on a refSetLRU, failing at the
// first step where they differ.
// The first byte picks the geometry; each later op is a kind byte plus
// one argument byte (the line): Access (read or write), Writeback or
// Invalidate. After every step each set's resident lines, their dirty
// bits and their LRU order must match.
func runSetOracle(t testing.TB, ops []byte, clock uint32) {
	if len(ops) == 0 {
		return
	}
	g := setOracleGeoms[int(ops[0])%len(setOracleGeoms)]
	sets, ways := g[0], g[1]
	c := NewSetAssoc(uint64(sets*ways*addr.LineBytes), ways, LRU)
	c.clock = clock
	r := &refSetLRU{ways: ways, sets: make([][]Eviction, sets)}
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
				t.Fatalf("%dx%d step %d: Access(%#x, %v) = (%v, %+v, %v), reference (%v, %+v, %v)",
					sets, ways, step, l, write, hit, ev, evicted, rhit, rev, revicted)
			}
			if rhit {
				hits++
			} else {
				misses++
			}
		case k < 13:
			if got, want := c.Writeback(l), r.writeback(l); got != want {
				t.Fatalf("%dx%d step %d: Writeback(%#x) = %v, reference %v", sets, ways, step, l, got, want)
			}
		default:
			gp, gd := c.Invalidate(l)
			wp, wd := r.invalidate(l)
			if gp != wp || gd != wd {
				t.Fatalf("%dx%d step %d: Invalidate(%#x) = (%v, %v), reference (%v, %v)", sets, ways, step, l, gp, gd, wp, wd)
			}
		}
		for s := range sets {
			if got := c.resident(s); !slices.Equal(got, r.sets[s]) {
				t.Fatalf("%dx%d step %d: set %d holds %+v, reference %+v", sets, ways, step, s, got, r.sets[s])
			}
		}
		if c.Hits != hits || c.Misses != misses {
			t.Fatalf("%dx%d step %d: Hits/Misses = %d/%d, reference %d/%d", sets, ways, step, c.Hits, c.Misses, hits, misses)
		}
	}
}

// TestSetAssocMatchesReference replays each stream twice: once from a
// fresh clock and once from a clock that wraps about 300 accesses in,
// as it does on an array past 2^32 accesses.
func TestSetAssocMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		for _, clock := range []uint32{0, 1<<32 - 300} {
			runSetOracle(t, randomOps(seed, 1000), clock)
		}
	}
}

// FuzzSetAssoc runs fuzzed op streams against the reference set-LRU. The
// seed corpus runs under `go test`; `make fuzz` explores beyond it.
func FuzzSetAssoc(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 1}) // one set: fill, evict, re-miss
	f.Add([]byte{2, 6, 1, 10, 1, 15, 1, 0, 1})           // dirty, writeback, invalidate, refill
	f.Add([]byte{5, 6, 64, 6, 72, 0, 0, 15, 8, 0, 64})   // lines >= 2^63 and split high words
	f.Add([]byte{0, 0, 80, 15, 80, 10, 80, 0, 81})       // 2^64-1 in a recency-ordered set
	f.Add([]byte{6, 0, 80, 15, 80, 10, 80, 0, 81})       // and in a timestamped one
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(randomOps(seed, 200))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runSetOracle(t, ops, 0) })
}

// TestSetAssocPolicyDigests pins every replacement policy's outcomes on
// one seeded stream: a hot set mixed with a scan on 256 sets of 4 ways,
// so DRRIP's leader sets move PSEL both ways and BRRIP draws its RNG,
// with writebacks and invalidations mixed in. The digest hashes every
// hit, eviction, dirty bit, writeback and invalidation result. The
// constants were computed when every policy still allocated both the LRU
// timestamps and the RRPVs; any change to a policy's behaviour changes
// its digest.
func TestSetAssocPolicyDigests(t *testing.T) {
	want := map[Repl]uint64{
		LRU:   0xa415ef108b934190,
		SRRIP: 0xdba1fd45516cc9d8,
		BRRIP: 0xc7ce069f58bea4a1,
		DRRIP: 0x5335b8b6238077ee,
	}
	for _, kind := range []Repl{LRU, SRRIP, BRRIP, DRRIP} {
		c := NewSetAssoc(256*4*addr.LineBytes, 4, kind)
		rng := rand.New(rand.NewPCG(11, 12))
		h := fnv.New64a()
		var buf [10]byte
		scan := 0
		for range 200_000 {
			var l addr.Line
			if rng.IntN(2) == 0 {
				l = addr.Line(rng.IntN(768))
			} else {
				l = addr.Line(1<<20 + scan)
				scan = (scan + 1) % (1 << 16)
			}
			buf = [10]byte{}
			switch op := rng.IntN(10); {
			case op < 8:
				hit, ev, evicted := c.Access(l, op < 2)
				buf[0] = b2u(hit) | b2u(evicted)<<1 | b2u(ev.Dirty)<<2
				binary.LittleEndian.PutUint64(buf[1:], uint64(ev.Line))
			case op < 9:
				buf[0] = 8 | b2u(c.Writeback(l))
			default:
				present, dirty := c.Invalidate(l)
				buf[0] = 16 | b2u(present) | b2u(dirty)<<1
			}
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], c.Hits)
		h.Write(buf[:8])
		if got := h.Sum64(); got != want[kind] {
			t.Errorf("%v: digest %#x, want %#x (hits %d, misses %d)", kind, got, want[kind], c.Hits, c.Misses)
		}
	}
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}
