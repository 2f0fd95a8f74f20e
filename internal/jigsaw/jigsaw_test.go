package jigsaw

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"whirlpool/internal/addr"
	"whirlpool/internal/energy"
	"whirlpool/internal/llc"
	"whirlpool/internal/mem"
	"whirlpool/internal/noc"
	"whirlpool/internal/trace"
)

func testConfig(classify llc.Classifier, bypass bool) Config {
	return Config{
		Chip:           noc.FourCoreChip(),
		Meter:          &energy.Meter{},
		Classify:       classify,
		SchemeName:     "test",
		BypassEnabled:  bypass,
		ReconfigCycles: 1_000_000,
	}
}

func TestVTBBankDistribution(t *testing.T) {
	chip := noc.FourCoreChip()
	v := newVC(llc.VCKey{Core: 0}, chip, chip.BankLines()/4)
	// Give the VC a 3:1 share split between banks 0 and 5.
	for b := range v.Shares {
		v.Shares[b] = 0
	}
	v.Shares[0] = 3000
	v.Shares[5] = 1000
	v.rebuildPrefix()
	counts := map[int]int{}
	for l := addr.Line(0); l < 100000; l++ {
		counts[v.Bank(l)]++
	}
	if len(counts) != 2 {
		t.Fatalf("lines mapped to %d banks, want 2", len(counts))
	}
	ratio := float64(counts[0]) / float64(counts[5])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("split ratio %.2f, want ~3.0", ratio)
	}
}

func TestVTBDeterministic(t *testing.T) {
	chip := noc.FourCoreChip()
	v := newVC(llc.VCKey{Core: 1}, chip, chip.BankLines()/4)
	for l := addr.Line(0); l < 1000; l++ {
		if v.Bank(l) != v.Bank(l) {
			t.Fatal("Bank not deterministic")
		}
	}
}

func TestVCInitialPlacementNearOwner(t *testing.T) {
	chip := noc.FourCoreChip()
	v := newVC(llc.VCKey{Core: 0}, chip, chip.BankLines()/4)
	nearest := chip.Mesh.BanksByDistance(0)[0]
	if v.Shares[nearest] == 0 {
		t.Fatal("initial allocation skipped the nearest bank")
	}
}

// Drive the engine with a cache-friendly pool and a streaming pool and
// check Whirlpool's characteristic decisions: the friendly pool gets
// capacity, the streaming pool is bypassed (the mis case study, Fig 9/10).
func TestBypassStreamingPool(t *testing.T) {
	poolOf := func(l addr.Line) mem.PoolID {
		if l < 1<<20 {
			return 1 // friendly
		}
		return 2 // streaming
	}
	classify := func(core int, l addr.Line) llc.VCKey {
		return llc.VCKey{Core: int16(core), Pool: poolOf(l)}
	}
	d := New(testConfig(classify, true))
	friendlyLines := uint64(20000) // ~1.2MB, fits easily
	streamLines := uint64(4 << 20) // way beyond LLC
	now := uint64(0)
	pos := uint64(0)
	for i := 0; i < 3_000_000; i++ {
		var l addr.Line
		if i%2 == 0 {
			l = addr.Line(uint64(i*2654435761) % friendlyLines)
		} else {
			pos = (pos + 1) % streamLines
			l = addr.Line(1<<20 + pos)
		}
		lat, _ := d.Access(0, trace.LLCAccess{Line: l})
		now += 2 + lat
		d.Tick(now)
	}
	var friendly, stream *VC
	for _, v := range d.VCs() {
		switch v.Key.Pool {
		case 1:
			friendly = v
		case 2:
			stream = v
		}
	}
	if friendly == nil || stream == nil {
		t.Fatal("VCs not created")
	}
	if !stream.Bypassed {
		t.Fatal("streaming pool should be bypassed")
	}
	if friendly.Bypassed {
		t.Fatal("friendly pool must not be bypassed")
	}
	// The friendly pool gets the capacity (latency-aware sizing may stop
	// slightly short of the full working set when the marginal far bank
	// does not pay for itself — the Sec 2.4 tradeoff).
	if friendly.TotalShare() < friendlyLines/2 {
		t.Fatalf("friendly pool alloc %d lines, want >= %d",
			friendly.TotalShare(), friendlyLines/2)
	}
	if d.Hits == 0 {
		t.Fatal("friendly pool should produce hits")
	}
	if d.Bypasses == 0 {
		t.Fatal("no bypassed accesses recorded")
	}
}

// The dt scenario: three pools with equal access rates but different
// sizes. The most intense pool (smallest) must be placed in the closest
// banks (Fig 5), and unused capacity must remain (Fig 4: dt fits in half
// the chip).
func TestPlacementByIntensity(t *testing.T) {
	mb := uint64(1 << 20)
	bounds := []uint64{0, mb / 2, 2 * mb, 6 * mb} // 0.5, 1.5, 4 MB pools
	poolOf := func(l addr.Line) mem.PoolID {
		b := uint64(l) * addr.LineBytes
		for p := 1; p < len(bounds); p++ {
			if b < bounds[p] {
				return mem.PoolID(p)
			}
		}
		return mem.PoolID(len(bounds) - 1)
	}
	classify := func(core int, l addr.Line) llc.VCKey {
		return llc.VCKey{Core: int16(core), Pool: poolOf(l)}
	}
	cfg := testConfig(classify, true)
	d := New(cfg)
	rng := uint64(12345)
	now := uint64(0)
	for i := 0; i < 4_000_000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		pool := i % 3
		lo := bounds[pool]
		hi := bounds[pool+1]
		b := lo + (rng>>33)%(hi-lo)
		lat, _ := d.Access(0, trace.LLCAccess{Line: addr.Line(b / addr.LineBytes)})
		now += 2 + lat
		d.Tick(now)
	}
	vcs := d.VCs()
	if len(vcs) != 3 {
		t.Fatalf("VCs = %d, want 3", len(vcs))
	}
	var points, triangles *VC
	for _, v := range vcs {
		switch v.Key.Pool {
		case 1:
			points = v
		case 3:
			triangles = v
		}
	}
	if points.Intensity() <= triangles.Intensity() {
		t.Fatalf("points intensity %.4f should exceed triangles %.4f",
			points.Intensity(), triangles.Intensity())
	}
	// The smallest pool must sit closer to core 0 than the largest.
	dist := d.AvgAllocDistance()
	var dPoints, dTri float64
	for i, v := range vcs {
		switch v.Key.Pool {
		case 1:
			dPoints = dist[i]
		case 3:
			dTri = dist[i]
		}
	}
	if dPoints >= dTri {
		t.Fatalf("points at distance %.2f, triangles at %.2f: intense pool not closer", dPoints, dTri)
	}
	// dt's 6MB working set fits in 12 of the 25 banks: several banks
	// must stay unused.
	owners := d.BankOwnerMap()
	unused := 0
	for _, o := range owners {
		if o == -1 {
			unused++
		}
	}
	if unused < 5 {
		t.Fatalf("only %d banks unused; latency-aware sizing should leave far banks empty", unused)
	}
}

func TestReconfigurationHappens(t *testing.T) {
	d := New(testConfig(llc.ThreadPrivate, false))
	now := uint64(0)
	for i := 0; i < 100_000; i++ {
		lat, _ := d.Access(0, trace.LLCAccess{Line: addr.Line(i % 5000)})
		now += 2 + lat
		d.Tick(now)
	}
	if d.Reconfigs == 0 {
		t.Fatal("runtime never reconfigured")
	}
}

func TestSharedVCCentroidPlacement(t *testing.T) {
	// A VC accessed only by core 3 must migrate its placement toward
	// core 3 even if created as shared.
	d := New(testConfig(llc.ProcessShared, false))
	now := uint64(0)
	for i := 0; i < 1_000_000; i++ {
		lat, _ := d.Access(3, trace.LLCAccess{Line: addr.Line(i % 30000)})
		now += 2 + lat
		d.Tick(now)
	}
	v := d.VCs()[0]
	mesh := d.cfg.Chip.Mesh
	// Weighted distance of the allocation from core 3 should be small:
	// compare against the worst possible bank.
	var worst float64
	for b := 0; b < d.cfg.Chip.NBanks(); b++ {
		if h := float64(mesh.CoreBankHops(3, b)); h > worst {
			worst = h
		}
	}
	var lines uint64
	var sum float64
	for b, s := range v.Shares {
		lines += s
		sum += float64(s) * float64(mesh.CoreBankHops(3, b))
	}
	avg := sum / float64(lines)
	if avg > worst/2 {
		t.Fatalf("shared VC not pulled toward its user: avg dist %.2f (worst %.2f)", avg, worst)
	}
}

func TestWritebackPathDoesNotMissTrack(t *testing.T) {
	d := New(testConfig(llc.ThreadPrivate, false))
	// Demand-load a line, then write it back: no new demand miss.
	d.Access(0, trace.LLCAccess{Line: 42})
	missesBefore := d.Misses
	d.Access(0, trace.LLCAccess{Line: 42, Writeback: true})
	if d.Misses != missesBefore {
		t.Fatal("writeback counted as demand miss")
	}
	if d.DemandAccs != 1 {
		t.Fatalf("demand accesses = %d, want 1", d.DemandAccs)
	}
}

func TestMissCurveSizingAblation(t *testing.T) {
	cfg := testConfig(llc.ThreadPrivate, false)
	cfg.MissCurveSizing = true
	d := New(cfg)
	now := uint64(0)
	for i := 0; i < 200_000; i++ {
		lat, _ := d.Access(0, trace.LLCAccess{Line: addr.Line(i % 2000)})
		now += 2 + lat
		d.Tick(now)
	}
	// Pure miss-curve sizing has no latency penalty for far banks, so a
	// tiny working set still works; just verify it runs and allocates.
	if d.VCs()[0].TotalShare() == 0 {
		t.Fatal("no allocation under miss-curve sizing")
	}
}

func TestEnergyAccounted(t *testing.T) {
	cfg := testConfig(llc.ThreadPrivate, false)
	d := New(cfg)
	for i := 0; i < 10000; i++ {
		d.Access(0, trace.LLCAccess{Line: addr.Line(i)})
	}
	if cfg.Meter.Total() == 0 {
		t.Fatal("no energy recorded")
	}
	if cfg.Meter.MemoryPJ == 0 {
		t.Fatal("misses must charge DRAM energy")
	}
}

// A key outside the dense VC table's range is a classifier bug; Access
// must name the key rather than fail with an index error.
func TestAccessPanicsOnBadKey(t *testing.T) {
	for _, key := range []llc.VCKey{{Core: llc.SharedVC - 1}, {Core: 0, Pool: -1}} {
		d := New(testConfig(func(int, addr.Line) llc.VCKey { return key }, false))
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("%+v", key); !strings.Contains(msg, want) {
					t.Errorf("key %+v: panic %q does not name %s", key, msg, want)
				}
			}()
			d.Access(0, trace.LLCAccess{Line: 1})
		}()
	}
}

func TestVCsInKeyOrder(t *testing.T) {
	touch := []llc.VCKey{
		{Core: 2, Pool: 1}, {Core: llc.SharedVC, Pool: 3}, {Core: 0, Pool: 0},
		{Core: 2, Pool: 0}, {Core: llc.SharedVC, Pool: 0}, {Core: 1, Pool: 5},
		{Core: 2, Pool: 1}, // already exists
	}
	d := New(testConfig(func(_ int, l addr.Line) llc.VCKey { return touch[l] }, false))
	for l := range touch {
		d.Access(0, trace.LLCAccess{Line: addr.Line(l)})
	}
	var got []llc.VCKey
	for _, v := range d.VCs() {
		got = append(got, v.Key)
	}
	want := []llc.VCKey{
		{Core: llc.SharedVC, Pool: 0}, {Core: llc.SharedVC, Pool: 3}, {Core: 0, Pool: 0},
		{Core: 1, Pool: 5}, {Core: 2, Pool: 0}, {Core: 2, Pool: 1},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("VCs() keys %+v, want %+v", got, want)
	}
}
