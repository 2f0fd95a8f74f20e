package jigsaw

import (
	"math/rand/v2"
	"testing"

	"whirlpool/internal/addr"
	"whirlpool/internal/llc"
	"whirlpool/internal/mem"
	"whirlpool/internal/noc"
	"whirlpool/internal/trace"
)

// BenchmarkDnucaAccess replays one fixed seeded stream into a Dnuca with
// no scheduler: four cores, each over a working set of three banks' worth
// of lines, with writes and writebacks mixed in. Jigsaw gives each core
// one VC; Whirlpool splits each core's lines over four pools and may
// bypass. One op is one Access; the engine is warmed by one pass and one
// reconfiguration first.
func BenchmarkDnucaAccess(b *testing.B) {
	const n = 1 << 16
	chip := noc.FourCoreChip()
	ws := 3 * int(chip.BankLines())
	rng := rand.New(rand.NewPCG(3, 4))
	cores := make([]int, n)
	accs := make([]trace.LLCAccess, n)
	for i := range accs {
		c := rng.IntN(chip.NCores())
		cores[i] = c
		accs[i] = trace.LLCAccess{
			Line:      addr.Line(c)<<32 + addr.Line(rng.IntN(ws)),
			Write:     rng.IntN(4) == 0,
			Writeback: rng.IntN(10) == 0,
		}
	}
	poolOf := func(l addr.Line) mem.PoolID { return mem.PoolID(l>>6) % 4 }
	for _, bc := range []struct {
		name     string
		classify llc.Classifier
		bypass   bool
	}{
		{"jigsaw", llc.ThreadPrivate, false},
		{"whirlpool", llc.PoolPrivate(poolOf), true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d := New(testConfig(bc.classify, bc.bypass))
			for i := range accs {
				d.Access(cores[i], accs[i])
			}
			d.Reconfigure()
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				d.Access(cores[i], accs[i])
				i = (i + 1) % n
			}
		})
	}
}
