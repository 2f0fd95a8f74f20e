package experiments

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"whirlpool/internal/noc"
	"whirlpool/internal/schemes"
	"whirlpool/internal/sim"
	"whirlpool/internal/trace"
	"whirlpool/internal/workloads"
)

// The shared test harness runs at reduced scale to keep tests fast.
var testH = NewHarness(0.15)

func runAll(t *testing.T, app string) map[schemes.Kind]*sim.Result {
	t.Helper()
	out := make(map[schemes.Kind]*sim.Result)
	for _, k := range schemes.AllKinds() {
		out[k] = must(testH.RunSingle(app, k, RunOptions{}))
	}
	return out
}

func TestAllSchemesRunDelaunay(t *testing.T) {
	res := runAll(t, "delaunay")
	for k, r := range res {
		if r.Demand == 0 {
			t.Fatalf("%v: no LLC accesses", k)
		}
		if r.Cycles == 0 || r.Instrs == 0 {
			t.Fatalf("%v: empty run", k)
		}
		if r.Energy.Total() == 0 {
			t.Fatalf("%v: no energy recorded", k)
		}
		if r.Hits+r.Misses+r.Bypasses != r.Demand {
			t.Fatalf("%v: outcome counts %d+%d+%d != demand %d",
				k, r.Hits, r.Misses, r.Bypasses, r.Demand)
		}
	}
	// All schemes replay the same trace: identical instruction counts.
	base := res[schemes.KindJigsaw].Instrs
	for k, r := range res {
		if r.Instrs != base {
			t.Fatalf("%v: instrs %d != %d", k, r.Instrs, base)
		}
	}
}

// The headline dt result (Sec 2.1): Whirlpool beats Jigsaw beats S-NUCA
// on both performance and data movement energy.
func TestDelaunayOrdering(t *testing.T) {
	res := runAll(t, "delaunay")
	snuca := res[schemes.KindSNUCALRU]
	jig := res[schemes.KindJigsaw]
	whirl := res[schemes.KindWhirlpool]
	if jig.Cycles >= snuca.Cycles {
		t.Errorf("Jigsaw (%d cycles) should beat S-NUCA (%d)", jig.Cycles, snuca.Cycles)
	}
	if whirl.Cycles > jig.Cycles {
		t.Errorf("Whirlpool (%d cycles) should not lose to Jigsaw (%d)", whirl.Cycles, jig.Cycles)
	}
	if whirl.Energy.Total() >= snuca.Energy.Total() {
		t.Errorf("Whirlpool energy (%.0f) should beat S-NUCA (%.0f)",
			whirl.Energy.Total(), snuca.Energy.Total())
	}
}

// The mis case study (Fig 9/10): Whirlpool must bypass the streaming
// edges pool and cut data movement energy substantially vs Jigsaw.
func TestMISBypassAndEnergy(t *testing.T) {
	jig := must(testH.RunSingle("MIS", schemes.KindJigsaw, RunOptions{}))
	whirl := must(testH.RunSingle("MIS", schemes.KindWhirlpool, RunOptions{}))
	if whirl.Bypasses == 0 {
		t.Fatal("Whirlpool should bypass mis's edges pool")
	}
	if whirl.Cycles >= jig.Cycles {
		t.Errorf("Whirlpool (%d cycles) should beat Jigsaw (%d) on mis", whirl.Cycles, jig.Cycles)
	}
	if whirl.Energy.Total() >= jig.Energy.Total() {
		t.Errorf("Whirlpool energy (%.0f) should beat Jigsaw (%.0f) on mis",
			whirl.Energy.Total(), jig.Energy.Total())
	}
	// Network + bank savings are where bypassing shows up.
	if whirl.Energy.BankPJ >= jig.Energy.BankPJ {
		t.Errorf("Whirlpool bank energy (%.0f) should drop vs Jigsaw (%.0f)",
			whirl.Energy.BankPJ, jig.Energy.BankPJ)
	}
}

// IdealSPD's bimodal behaviour (Sec 4.5): fine when the working set fits
// its 1.5MB private region, expensive multi-level lookups when it does not.
func TestIdealSPDEnergyOnLargeWS(t *testing.T) {
	res := runAll(t, "MIS")
	spd := res[schemes.KindIdealSPD]
	whirl := res[schemes.KindWhirlpool]
	if spd.Energy.Total() <= whirl.Energy.Total() {
		t.Errorf("IdealSPD energy (%.0f) should exceed Whirlpool (%.0f) on a large-WS app",
			spd.Energy.Total(), whirl.Energy.Total())
	}
}

func TestPerPoolCounters(t *testing.T) {
	r := must(testH.RunSingle("delaunay", schemes.KindWhirlpool, RunOptions{PerPool: true}))
	if len(r.PoolAccesses) == 0 {
		t.Fatal("no per-pool counters")
	}
	// dt's three structures split accesses roughly evenly (Fig 2).
	var nonzero int
	for _, c := range r.PoolAccesses[1:] {
		if c > 0 {
			nonzero++
		}
	}
	if nonzero != 3 {
		t.Fatalf("dt should touch 3 pools, got %d: %v", nonzero, r.PoolAccesses)
	}
}

func TestMixFixedWork(t *testing.T) {
	h := NewHarness(0.05)
	r := must(h.RunMix([]string{"mcf", "lbm", "MIS", "delaunay"}, schemes.KindWhirlpool,
		noc.FourCoreChip(), false))
	if len(r.Cores) != 4 {
		t.Fatalf("cores = %d", len(r.Cores))
	}
	for c, cr := range r.Cores {
		if cr.Instrs == 0 || cr.Cycles == 0 {
			t.Fatalf("core %d: empty result", c)
		}
		if cr.IPC() <= 0 {
			t.Fatalf("core %d: IPC %v", c, cr.IPC())
		}
	}
}

func TestMixWhirlpoolVsJigsawWeightedSpeedup(t *testing.T) {
	h := NewHarness(0.05)
	apps := []string{"mcf", "cactus", "MIS", "delaunay"}
	jig := must(h.RunMix(apps, schemes.KindJigsaw, noc.FourCoreChip(), false))
	whirl := must(h.RunMix(apps, schemes.KindWhirlpool, noc.FourCoreChip(), false))
	ws := 0.0
	for c := range apps {
		ws += whirl.Cores[c].IPC() / jig.Cores[c].IPC()
	}
	ws /= float64(len(apps))
	if ws < 0.97 {
		t.Errorf("Whirlpool weighted speedup vs Jigsaw = %.3f; should not lose meaningfully", ws)
	}
}

func TestHarnessTraceCaching(t *testing.T) {
	h := NewHarness(0.02)
	a := h.App("hull")
	b := h.App("hull")
	if a != b {
		t.Fatal("trace not cached")
	}
}

func TestRunSingleDeterministic(t *testing.T) {
	h1 := NewHarness(0.05)
	h2 := NewHarness(0.05)
	r1 := must(h1.RunSingle("mcf", schemes.KindWhirlpool, RunOptions{}))
	r2 := must(h2.RunSingle("mcf", schemes.KindWhirlpool, RunOptions{}))
	if r1.Cycles != r2.Cycles || r1.Hits != r2.Hits || r1.Misses != r2.Misses {
		t.Fatalf("nondeterministic: %d/%d/%d vs %d/%d/%d",
			r1.Cycles, r1.Hits, r1.Misses, r2.Cycles, r2.Hits, r2.Misses)
	}
}

// TestDiskTraceCacheWarmRerun is the acceptance contract for the on-disk
// trace cache: a second harness pointed at the same cache directory runs
// the same cells with zero trace regenerations, and its results are
// bit-identical to the cold run's.
func TestDiskTraceCacheWarmRerun(t *testing.T) {
	dir := t.TempDir()
	apps := []string{"delaunay", "MIS"}

	cold := NewHarness(0.05)
	cold.CacheDir = dir
	coldRes := map[string]*sim.Result{}
	for _, app := range apps {
		coldRes[app] = must(cold.RunSingle(app, schemes.KindJigsaw, RunOptions{}))
	}
	cs := cold.CacheStats()
	if cs.Builds != int64(len(apps)) || cs.DiskHits != 0 {
		t.Fatalf("cold stats = %+v, want %d builds, 0 hits", cs, len(apps))
	}

	warm := NewHarness(0.05)
	warm.CacheDir = dir
	for _, app := range apps {
		r := must(warm.RunSingle(app, schemes.KindJigsaw, RunOptions{}))
		c := coldRes[app]
		if r.Cycles != c.Cycles || r.Hits != c.Hits || r.Misses != c.Misses ||
			r.Instrs != c.Instrs || r.Energy.Total() != c.Energy.Total() {
			t.Fatalf("%s: warm-cache result differs from cold run", app)
		}
	}
	ws := warm.CacheStats()
	if ws.Builds != 0 || ws.DiskHits != int64(len(apps)) {
		t.Fatalf("warm stats = %+v, want 0 builds, %d hits", ws, len(apps))
	}
}

// TestDiskTraceCacheKeying: different scale or seed must never share a
// cache entry.
func TestDiskTraceCacheKeying(t *testing.T) {
	dir := t.TempDir()
	h1 := NewHarness(0.05)
	h1.CacheDir = dir
	h1.App("hull")

	h2 := NewHarness(0.02) // different scale
	h2.CacheDir = dir
	h2.App("hull")
	if s := h2.CacheStats(); s.Builds != 1 || s.DiskHits != 0 {
		t.Fatalf("different scale reused a cache entry: %+v", s)
	}

	h3 := NewHarness(0.05) // different seed
	h3.CacheDir = dir
	h3.Seed = 12345
	h3.App("hull")
	if s := h3.CacheStats(); s.Builds != 1 || s.DiskHits != 0 {
		t.Fatalf("different seed reused a cache entry: %+v", s)
	}

	// Same config again: both prior entries are live, zero rebuilds.
	h4 := NewHarness(0.05)
	h4.CacheDir = dir
	h4.App("hull")
	if s := h4.CacheStats(); s.Builds != 0 || s.DiskHits != 1 {
		t.Fatalf("identical config missed the cache: %+v", s)
	}
}

// TestDiskTraceCacheHealsCorruptEntry: a truncated/corrupt cache file is
// treated as a miss and overwritten, not an error.
func TestDiskTraceCacheHealsCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	h1 := NewHarness(0.02)
	h1.CacheDir = dir
	want := h1.App("hull").Tr.Stats()

	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("cache dir: %v entries, err %v", len(ents), err)
	}
	path := filepath.Join(dir, ents[0].Name())
	if err := os.WriteFile(path, []byte("WTRCgarbage"), 0o666); err != nil {
		t.Fatal(err)
	}

	h2 := NewHarness(0.02)
	h2.CacheDir = dir
	got := h2.App("hull").Tr.Stats()
	if got != want {
		t.Fatalf("healed trace stats = %+v, want %+v", got, want)
	}
	if s := h2.CacheStats(); s.Builds != 1 {
		t.Fatalf("corrupt entry should rebuild: %+v", s)
	}

	h3 := NewHarness(0.02)
	h3.CacheDir = dir
	h3.App("hull")
	if s := h3.CacheStats(); s.DiskHits != 1 {
		t.Fatalf("healed entry should hit: %+v", s)
	}
}

// TestDiskTraceCacheWriteFailureDegrades: an unwritable cache dir must
// not fail the run — the built trace is used uncached and the failure
// is visible in CacheStats.
func TestDiskTraceCacheWriteFailureDegrades(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	h := NewHarness(0.02)
	h.CacheDir = blocker // a file: MkdirAll and writes fail
	r := must(h.RunSingle("hull", schemes.KindJigsaw, RunOptions{}))
	if r.Demand == 0 {
		t.Fatal("run failed under an unwritable cache dir")
	}
	if s := h.CacheStats(); s.Builds != 1 || s.WriteErrors != 1 {
		t.Fatalf("stats = %+v, want 1 build, 1 write error", s)
	}
}

// TestTraceSourcedApp registers a recorded .wtrc as an app spec and
// checks it replays bit-identically to the app it was recorded from
// (under a classification-independent scheme).
func TestTraceSourcedApp(t *testing.T) {
	t.Cleanup(workloads.SnapshotRegistry())
	dir := t.TempDir()
	rec := NewHarness(0.05)
	at, err := rec.AppErr("delaunay")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "dt.wtrc")
	if err := trace.WriteFile(path, at.Tr); err != nil {
		t.Fatal(err)
	}

	if err := workloads.Register(workloads.AppSpec{Name: "dt-recorded", Suite: "trace", TracePath: path}); err != nil {
		t.Fatal(err)
	}
	h := NewHarness(0.05)
	direct := must(h.RunSingle("delaunay", schemes.KindJigsaw, RunOptions{}))
	replay := must(h.RunSingle("dt-recorded", schemes.KindJigsaw, RunOptions{}))
	if direct.Cycles != replay.Cycles || direct.Misses != replay.Misses ||
		direct.Hits != replay.Hits || direct.Instrs != replay.Instrs {
		t.Fatalf("trace replay differs: direct %d/%d/%d, replay %d/%d/%d",
			direct.Cycles, direct.Hits, direct.Misses,
			replay.Cycles, replay.Hits, replay.Misses)
	}
}

// TestTraceSourcedAppAllSchemes: a structless trace app must run under
// every scheme — including Whirlpool, whose classifier must not probe
// the (empty) simulated address space — alone and inside a mix.
func TestTraceSourcedAppAllSchemes(t *testing.T) {
	t.Cleanup(workloads.SnapshotRegistry())
	dir := t.TempDir()
	rec := NewHarness(0.02)
	path := filepath.Join(dir, "hull.wtrc")
	if err := trace.WriteFile(path, rec.App("hull").Tr); err != nil {
		t.Fatal(err)
	}
	if err := workloads.Register(workloads.AppSpec{Name: "hull-rec", Suite: "trace", TracePath: path}); err != nil {
		t.Fatal(err)
	}
	h := NewHarness(0.02)
	for _, k := range schemes.AllKinds() {
		r := must(h.RunSingle("hull-rec", k, RunOptions{}))
		if r.Demand == 0 {
			t.Fatalf("%v: empty trace-app run", k)
		}
	}
	mix := must(h.RunMix([]string{"hull-rec", "MIS"}, schemes.KindWhirlpool, noc.FourCoreChip(), false))
	if mix.Cores[0].Demand == 0 || mix.Cores[1].Demand == 0 {
		t.Fatal("trace app in a whirlpool mix produced empty cores")
	}
}

// TestTraceSourcedAppMissingFile: a bad trace path errors cleanly.
func TestTraceSourcedAppMissingFile(t *testing.T) {
	t.Cleanup(workloads.SnapshotRegistry())
	if err := workloads.Register(workloads.AppSpec{Name: "bad-trace", TracePath: "/nonexistent/x.wtrc"}); err != nil {
		t.Fatal(err)
	}
	h := NewHarness(0.05)
	if _, err := h.AppErr("bad-trace"); err == nil {
		t.Fatal("missing trace file must error")
	}
}

// corruptDeltas copies the .wtrc file at src to dst with a run of 0xff
// bytes (a varint that never terminates) in the middle of its delta
// column, and recomputes the CRC so the file still opens.
func corruptDeltas(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	const deltasAt = 80 // magic, version, nine-word header
	mid := deltasAt + int(binary.LittleEndian.Uint64(data[64:]))/2
	for i := mid; i < mid+12; i++ {
		data[i] = 0xff
	}
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	if err := os.WriteFile(dst, data, 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestTraceSourcedAppCorruptColumn sweeps a recorded trace whose delta
// column is corrupt behind a valid CRC: the file opens, but every cell
// replaying it — alone or in a mix — must come back as an error row
// naming the column, not as a silently truncated success.
func TestTraceSourcedAppCorruptColumn(t *testing.T) {
	t.Cleanup(workloads.SnapshotRegistry())
	dir := t.TempDir()
	good := filepath.Join(dir, "hull.wtrc")
	if err := trace.WriteFile(good, NewHarness(0.02).App("hull").Tr); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "hull-bad.wtrc")
	corruptDeltas(t, good, bad)
	if err := workloads.Register(workloads.AppSpec{Name: "hull-bad", Suite: "trace", TracePath: bad}); err != nil {
		t.Fatal(err)
	}
	rows, err := NewHarness(0.02).Sweep(SweepConfig{
		Apps:    []string{"hull-bad"},
		Mixes:   []SweepMix{{Name: "bad-mix", Apps: []string{"MIS", "hull-bad"}}},
		Kinds:   []schemes.Kind{schemes.KindSNUCALRU, schemes.KindWhirlpool},
		Workers: 2,
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if !strings.Contains(r.Err, "corrupt .wtrc delta column") || strings.HasPrefix(r.Err, "panic") || r.Cycles != 0 {
			t.Errorf("%s/%s: err %q cycles %d, want a corrupt-column error row", r.App, r.Scheme, r.Err, r.Cycles)
		}
	}
}
