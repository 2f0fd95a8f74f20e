package schemes

import (
	"math/rand/v2"
	"testing"
	"time"

	"whirlpool/internal/addr"
	"whirlpool/internal/energy"
	"whirlpool/internal/llc"
	"whirlpool/internal/mem"
	"whirlpool/internal/noc"
	"whirlpool/internal/trace"
)

const (
	benchAccesses = 1 << 18 // the stream's length
	benchInterval = 1 << 12 // accesses per reconfiguration interval
	benchPeriod   = 500_000 // cycles per reconfiguration interval
)

// benchStream is one fixed seeded stream on the 16-core chip: each core
// sends 80% of its accesses to a hot set of half its LLC share and the
// rest to a range four times its share, with a quarter of the demand
// accesses writes and one access in ten a writeback.
func benchStream(chip *noc.Chip) (cores []int, accs []trace.LLCAccess) {
	share := int(chip.TotalLines()) / chip.NCores()
	rng := rand.New(rand.NewPCG(5, 6))
	cores = make([]int, benchAccesses)
	accs = make([]trace.LLCAccess, benchAccesses)
	for i := range accs {
		c := rng.IntN(chip.NCores())
		l := rng.IntN(4 * share)
		if rng.IntN(5) != 0 {
			l = rng.IntN(share / 2)
		}
		cores[i] = c
		accs[i] = trace.LLCAccess{
			Line:      addr.Line(c)<<32 + addr.Line(l),
			Write:     rng.IntN(4) == 0,
			Writeback: rng.IntN(10) == 0,
		}
	}
	return cores, accs
}

// benchLLC builds scheme k on chip with Jigsaw's thread-private VCs and
// Whirlpool's four pools per core, bypass on, and warms it with one pass
// of the stream, ticking at every interval.
func benchLLC(k Kind, chip *noc.Chip, cores []int, accs []trace.LLCAccess) (llc.LLC, uint64) {
	poolOf := func(l addr.Line) mem.PoolID { return mem.PoolID(l>>6) % 4 }
	l := Build(k, Options{
		Chip: chip, Meter: &energy.Meter{},
		JigsawClassify:    llc.ThreadPrivate,
		WhirlpoolClassify: llc.PoolPrivate(poolOf),
		ReconfigCycles:    benchPeriod,
		Bypass:            true,
	})
	var now uint64
	for i := range accs {
		l.Access(cores[i], accs[i])
		if (i+1)%benchInterval == 0 {
			now += benchPeriod
			l.Tick(now)
		}
	}
	return l, now
}

// BenchmarkLLCAccess replays the stream into every registered scheme on
// the 16-core chip with no scheduler and no ticks. One op is one Access.
func BenchmarkLLCAccess(b *testing.B) {
	chip := noc.SixteenCoreChip()
	cores, accs := benchStream(chip)
	for _, k := range AllKinds() {
		b.Run(k.ID(), func(b *testing.B) {
			l, _ := benchLLC(k, chip, cores, accs)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				l.Access(cores[i], accs[i])
				i = (i + 1) % len(accs)
			}
		})
	}
}

// BenchmarkLLCTick replays the stream into every registered scheme on the
// 16-core chip in reconfiguration intervals. One op is one interval: its
// accesses, then the Tick that ends it (a reconfiguration for Jigsaw and
// Whirlpool, a migration epoch for Awasthi, nothing for the static
// schemes). The tick-ns/op metric is the Tick's share of an op.
func BenchmarkLLCTick(b *testing.B) {
	chip := noc.SixteenCoreChip()
	cores, accs := benchStream(chip)
	for _, k := range AllKinds() {
		b.Run(k.ID(), func(b *testing.B) {
			l, now := benchLLC(k, chip, cores, accs)
			b.ReportAllocs()
			var tick time.Duration
			ops, i := 0, 0
			for b.Loop() {
				for range benchInterval {
					l.Access(cores[i], accs[i])
					i = (i + 1) % len(accs)
				}
				now += benchPeriod
				t0 := time.Now()
				l.Tick(now)
				tick += time.Since(t0)
				ops++
			}
			b.ReportMetric(float64(tick.Nanoseconds())/float64(ops), "tick-ns/op")
		})
	}
}
