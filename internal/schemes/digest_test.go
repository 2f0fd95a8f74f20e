package schemes

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"testing"

	"whirlpool/internal/addr"
	"whirlpool/internal/energy"
	"whirlpool/internal/noc"
	"whirlpool/internal/trace"
)

// TestSchemeDigests pins the set-associative schemes absolutely: each
// replays one seeded stream on the 4-core chip, ticking every 8192
// accesses so Awasthi migrates pages, and hashes every access's latency
// and outcome, then the scheme's final counters and energy meter. Each
// core sends half its accesses to 50 hot pages (Awasthi's migration
// candidates), 30% to twice its LLC share (so IdealSPD's private region
// spills into its L4 and hits there) and the rest to 16 times its share,
// so every array evicts. A quarter of the demand accesses are writes and
// one access in ten is a writeback. The path-vs-path tests cannot see a
// change that moves every path alike; these digests do, so any change to
// a digest is a behaviour change.
func TestSchemeDigests(t *testing.T) {
	want := map[Kind]uint64{
		KindSNUCALRU: 0xf97b0bcd43d76300,
		KindIdealSPD: 0xab7598c1861ba41b,
		KindAwasthi:  0x5904ad0ec3f07149,
	}
	const (
		accesses = 1 << 19
		interval = 1 << 13
		period   = 500_000
	)
	chip := noc.FourCoreChip()
	share := int(chip.TotalLines()) / chip.NCores()
	for _, k := range []Kind{KindSNUCALRU, KindIdealSPD, KindAwasthi} {
		m := &energy.Meter{}
		l := Build(k, Options{Chip: chip, Meter: m, ReconfigCycles: period})
		rng := rand.New(rand.NewPCG(21, 22))
		h := fnv.New64a()
		var buf [9]byte
		var now uint64
		for i := range accesses {
			c := rng.IntN(chip.NCores())
			var line int
			switch r := rng.IntN(10); {
			case r < 5:
				line = rng.IntN(50 * addr.LinesPerPage)
			case r < 8:
				line = rng.IntN(2 * share)
			default:
				line = rng.IntN(16 * share)
			}
			lat, out := l.Access(c, trace.LLCAccess{
				Line:      addr.Line(c)<<32 + addr.Line(line),
				Write:     rng.IntN(4) == 0,
				Writeback: rng.IntN(10) == 0,
			})
			binary.LittleEndian.PutUint64(buf[:], lat)
			buf[8] = byte(out)
			h.Write(buf[:])
			if (i+1)%interval == 0 {
				now += period
				l.Tick(now)
			}
		}
		var counters []uint64
		switch s := l.(type) {
		case *SNUCA:
			counters = []uint64{s.Hits, s.Misses, s.WritebacksMem}
		case *IdealSPD:
			counters = []uint64{s.Hits, s.Misses, s.PrivHits, s.L4Hits, s.WritebacksMem}
		case *Awasthi:
			if s.Migrations == 0 {
				t.Errorf("%s: no page migrated, so the digest does not cover migration", k)
			}
			counters = []uint64{s.Hits, s.Misses, s.Migrations, s.WritebacksMem}
		}
		for _, v := range append(counters,
			math.Float64bits(m.BankPJ), math.Float64bits(m.NetworkPJ), math.Float64bits(m.MemoryPJ)) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:8])
		}
		if got := h.Sum64(); got != want[k] {
			t.Errorf("%s: digest %#x, want %#x (counters %v, meter %+v)", k, got, want[k], counters, *m)
		}
	}
}
