package schemes

import (
	"testing"

	"whirlpool/internal/addr"
	"whirlpool/internal/cache"
	"whirlpool/internal/energy"
	"whirlpool/internal/llc"
	"whirlpool/internal/noc"
	"whirlpool/internal/stats"
	"whirlpool/internal/trace"
)

func demand(l addr.Line) trace.LLCAccess { return trace.LLCAccess{Line: l} }
func wback(l addr.Line) trace.LLCAccess  { return trace.LLCAccess{Line: l, Writeback: true} }

func buildAll(t *testing.T) []llc.LLC {
	t.Helper()
	chip := noc.FourCoreChip()
	var out []llc.LLC
	for _, k := range AllKinds() {
		m := &energy.Meter{}
		out = append(out, Build(k, Options{
			Chip: chip, Meter: m,
			JigsawClassify:    llc.ThreadPrivate,
			WhirlpoolClassify: llc.ThreadPrivate,
			ReconfigCycles:    500_000,
			Bypass:            true,
		}))
	}
	return out
}

func TestAllSchemesBasicContract(t *testing.T) {
	for _, l := range buildAll(t) {
		// A demand access to a cold line misses; an immediate repeat hits
		// (every scheme caches somewhere on the first fill).
		lat1, out1 := l.Access(0, demand(12345))
		if out1 == llc.Hit {
			t.Fatalf("%s: cold access hit", l.Name())
		}
		if lat1 == 0 {
			t.Fatalf("%s: zero demand latency", l.Name())
		}
		lat2, out2 := l.Access(0, demand(12345))
		if out2 != llc.Hit {
			t.Fatalf("%s: repeat access did not hit", l.Name())
		}
		if lat2 >= lat1 {
			t.Fatalf("%s: hit latency %d >= miss latency %d", l.Name(), lat2, lat1)
		}
		// Writebacks never stall.
		if lat, _ := l.Access(0, wback(12345)); lat != 0 {
			t.Fatalf("%s: writeback stalled %d cycles", l.Name(), lat)
		}
		l.Tick(1_000_000)
	}
}

func TestSchemeNames(t *testing.T) {
	want := map[string]bool{
		"S-NUCA-LRU": true, "S-NUCA-DRRIP": true, "IdealSPD": true,
		"Awasthi": true, "Jigsaw": true, "Whirlpool": true,
	}
	for _, l := range buildAll(t) {
		if !want[l.Name()] {
			t.Fatalf("unexpected scheme name %q", l.Name())
		}
	}
	if len(AllKinds()) != 6 {
		t.Fatal("should be six schemes")
	}
}

func TestSNUCADistributesBanks(t *testing.T) {
	chip := noc.FourCoreChip()
	m := &energy.Meter{}
	s := NewSNUCA(chip, m, cache.LRU)
	counts := make(map[int]int)
	for i := 0; i < 50000; i++ {
		counts[s.bank(demand(addr.Line(i)))]++
	}
	if len(counts) != chip.NBanks() {
		t.Fatalf("S-NUCA used %d banks, want %d", len(counts), chip.NBanks())
	}
	for b, c := range counts {
		if c < 1000 || c > 3000 {
			t.Fatalf("bank %d has %d lines; hashing skewed", b, c)
		}
	}
}

func TestIdealSPDPrivateHitsAreCheap(t *testing.T) {
	chip := noc.FourCoreChip()
	m := &energy.Meter{}
	s := NewIdealSPD(chip, m)
	// Fill a small working set, then re-access: private hits with the
	// minimum latency.
	for i := 0; i < 1000; i++ {
		s.Access(0, demand(addr.Line(i)))
	}
	lat, out := s.Access(0, demand(addr.Line(5)))
	if out != llc.Hit {
		t.Fatal("small WS should hit privately")
	}
	maxPriv := uint64(noc.BankLatency + 2*noc.HopLatency(privHops))
	if lat > maxPriv {
		t.Fatalf("private hit latency %d > %d", lat, maxPriv)
	}
	if s.PrivHits == 0 {
		t.Fatal("no private hits recorded")
	}
}

func TestIdealSPDExclusiveL4(t *testing.T) {
	chip := noc.FourCoreChip()
	m := &energy.Meter{}
	s := NewIdealSPD(chip, m)
	// Stream beyond the 1.5MB private region: victims spill to L4 and
	// re-accessing them hits in L4 (migrating back).
	lines := 3 * 24576 / 2 // 2x the private capacity
	for i := 0; i < lines; i++ {
		s.Access(0, demand(addr.Line(i)))
	}
	for i := 0; i < 1000; i++ {
		s.Access(0, demand(addr.Line(i)))
	}
	if s.L4Hits == 0 {
		t.Fatal("exclusive L4 never hit")
	}
}

func TestAwasthiFirstTouchNearCore(t *testing.T) {
	chip := noc.FourCoreChip()
	m := &energy.Meter{}
	a := NewAwasthi(chip, m, 500_000)
	near := chip.Mesh.BanksByDistance(0)[:initialBanks]
	nearSet := map[int]bool{}
	for _, b := range near {
		nearSet[b] = true
	}
	for i := 0; i < 10000; i++ {
		a.Access(0, demand(addr.Line(i)))
	}
	for pg, b := range a.pageBank {
		if !nearSet[int(b)] {
			t.Fatalf("page %d first-touched to far bank %d", pg, b)
		}
	}
}

func TestAwasthiMigratesHotPages(t *testing.T) {
	chip := noc.FourCoreChip()
	m := &energy.Meter{}
	a := NewAwasthi(chip, m, 100_000)
	rng := stats.NewRng(5)
	now := uint64(0)
	for i := 0; i < 400_000; i++ {
		l := addr.Line(rng.Uint64n(64 * addr.LinesPerPage)) // 64 hot pages
		lat, _ := a.Access(0, demand(l))
		now += 2 + lat
		a.Tick(now)
	}
	if a.Migrations == 0 {
		t.Fatal("hot pages never migrated")
	}
}

func TestAwasthiEnergyAccounted(t *testing.T) {
	chip := noc.FourCoreChip()
	m := &energy.Meter{}
	a := NewAwasthi(chip, m, 100_000)
	for i := 0; i < 1000; i++ {
		a.Access(0, demand(addr.Line(i*64)))
	}
	if m.Total() == 0 || m.MemoryPJ == 0 {
		t.Fatal("no energy recorded")
	}
}
