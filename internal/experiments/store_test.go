package experiments

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"whirlpool/internal/results"
	"whirlpool/internal/schemes"
	"whirlpool/internal/trace"
	"whirlpool/internal/workloads"
)

// TestSweepStoreMemoizes is the core memoization contract: a sweep
// against a warm store performs zero trace builds and zero simulations
// (the store counters prove it), and the served rows are bit-identical
// to the freshly computed ones.
func TestSweepStoreMemoizes(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := SweepConfig{
		Apps:    []string{"delaunay", "MIS"},
		Kinds:   []schemes.Kind{schemes.KindJigsaw, schemes.KindSNUCALRU},
		Workers: 2,
		Store:   store,
	}

	cold := NewHarness(0.05)
	rows1, err := cold.Sweep(cfg)
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	st := store.Stats()
	if st.Hits != 0 || st.Misses != int64(len(rows1)) || st.Puts != int64(len(rows1)) {
		t.Fatalf("cold sweep stats = %+v, want 0 hits, %d misses, %d puts", st, len(rows1), len(rows1))
	}

	// A fresh harness: no in-memory trace cache, no disk trace cache —
	// any served row provably came from the result store alone.
	warm := NewHarness(0.05)
	rows2, err := warm.Sweep(cfg)
	if err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	st = store.Stats()
	if st.Hits != int64(len(rows1)) || st.Misses != int64(len(rows1)) {
		t.Fatalf("warm sweep stats = %+v, want %d hits and no new misses", st, len(rows1))
	}
	if b := warm.CacheStats().Builds; b != 0 {
		t.Fatalf("warm sweep built %d traces, want 0 (store must preempt trace prefetch)", b)
	}
	if len(rows2) != len(rows1) {
		t.Fatalf("warm sweep returned %d rows, want %d", len(rows2), len(rows1))
	}
	for i := range rows1 {
		a, b := rows1[i], rows2[i]
		// WallMS is host timing: the served row carries the recorded
		// compute time, every other field must match bit for bit.
		a.WallMS, b.WallMS = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("row %d differs served vs computed:\n  computed: %+v\n  served:   %+v", i, a, b)
		}
	}
}

// TestSweepStoreRespectsConfig: rows memoized at one (scale, seed,
// scheme, bypass) must not serve a sweep at another — the key covers
// the full configuration.
func TestSweepStoreRespectsConfig(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	base := SweepConfig{Apps: []string{"delaunay"}, Kinds: []schemes.Kind{schemes.KindJigsaw}, Store: store}

	h := NewHarness(0.05)
	if _, err := h.Sweep(base); err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		h    *Harness
		cfg  SweepConfig
	}{
		{"other scale", NewHarness(0.02), base},
		{"other seed", func() *Harness { h := NewHarness(0.05); h.Seed = 7; return h }(), base},
		{"other scheme", NewHarness(0.05),
			SweepConfig{Apps: base.Apps, Kinds: []schemes.Kind{schemes.KindSNUCALRU}, Store: store}},
		{"nobypass", NewHarness(0.05),
			SweepConfig{Apps: base.Apps, Kinds: base.Kinds, NoBypass: true, Store: store}},
	}
	for _, v := range variants {
		before := store.Stats().Hits
		if _, err := v.h.Sweep(v.cfg); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if hits := store.Stats().Hits - before; hits != 0 {
			t.Errorf("%s: served %d rows from a differently-configured sweep", v.name, hits)
		}
	}
	// The original configuration still serves.
	before := store.Stats().Hits
	if _, err := NewHarness(0.05).Sweep(base); err != nil {
		t.Fatal(err)
	}
	if hits := store.Stats().Hits - before; hits != 1 {
		t.Errorf("original config served %d rows after variant sweeps, want 1", hits)
	}
}

// TestSweepStoreMix: mix cells memoize too, keyed on the member specs,
// pins, and chip.
func TestSweepStoreMix(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	mix := SweepMix{Name: "m1", Apps: []string{"delaunay", "MIS"}}
	cfg := SweepConfig{Mixes: []SweepMix{mix}, Kinds: []schemes.Kind{schemes.KindJigsaw}, Store: store}
	rows1, err := NewHarness(0.05).Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewHarness(0.05)
	rows2, err := warm.Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheStats().Builds != 0 {
		t.Fatalf("warm mix sweep built %d traces, want 0", warm.CacheStats().Builds)
	}
	a, b := rows1[0], rows2[0]
	a.WallMS, b.WallMS = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("mix row differs served vs computed:\n  %+v\n  %+v", a, b)
	}
	// Same members under a different mix name: the row's identity
	// column (App = mix name) differs, so it must not be served.
	before := store.Stats().Hits
	renamed := cfg
	renamed.Mixes = []SweepMix{{Name: "m2", Apps: mix.Apps}}
	if _, err := NewHarness(0.05).Sweep(renamed); err != nil {
		t.Fatal(err)
	}
	if hits := store.Stats().Hits - before; hits != 0 {
		t.Errorf("renamed mix served %d rows recorded under the old name", hits)
	}
}

// registerPanickingApp registers a spec whose manual pool grouping
// references a struct index that does not exist — the classifier build
// panics inside the simulator exactly like the paper-scheme classifier
// does for lines outside any arena. Restoration is handled by the
// registry snapshot.
func registerPanickingApp(t *testing.T, name string) {
	t.Helper()
	t.Cleanup(workloads.SnapshotRegistry())
	spec, ok := workloads.ByName("delaunay")
	if !ok {
		t.Fatal("builtin delaunay missing")
	}
	spec.Name = name
	spec.ManualPools = [][]int{{len(spec.Structs) + 5}} // out of range: CallpointPools panics
	if err := workloads.Register(spec); err != nil {
		t.Fatal(err)
	}
}

// TestSweepPanicRowCarriesStack: a panicking cell must produce an error
// row that names the panic site (the stack), not just the panic value.
func TestSweepPanicRowCarriesStack(t *testing.T) {
	registerPanickingApp(t, "boom")
	h := NewHarness(0.05)
	rows, err := h.Sweep(SweepConfig{
		Apps:  []string{"boom", "MIS"},
		Kinds: []schemes.Kind{schemes.KindWhirlpool},
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	var boom, ok SweepRow
	for _, r := range rows {
		if r.App == "boom" {
			boom = r
		}
		if r.App == "MIS" {
			ok = r
		}
	}
	if boom.Err == "" {
		t.Fatal("panicking cell produced no error row")
	}
	if !strings.Contains(boom.Err, "bad struct index") {
		t.Errorf("error row lost the panic value: %q", boom.Err)
	}
	if !strings.Contains(boom.Err, "CallpointPools") {
		t.Errorf("error row lost the panic site stack: %.200q", boom.Err)
	}
	if ok.Err != "" || ok.Cycles == 0 {
		t.Errorf("healthy cell affected by neighboring panic: %+v", ok)
	}
}

// TestSweepStoreSkipsErrorRows: failed cells are recomputed every time,
// never memoized.
func TestSweepStoreSkipsErrorRows(t *testing.T) {
	registerPanickingApp(t, "boom-store")
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := SweepConfig{Apps: []string{"boom-store"}, Kinds: []schemes.Kind{schemes.KindWhirlpool}, Store: store}
	for round := 0; round < 2; round++ {
		rows, err := NewHarness(0.05).Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rows[0].Err == "" {
			t.Fatalf("round %d: expected an error row", round)
		}
	}
	st := store.Stats()
	if st.Puts != 0 || st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("error rows leaked into the store: %+v", st)
	}
}

// TestSweepStoreTraceSourcedContent: a trace-sourced app's cell key
// covers the .wtrc *contents*, so re-recording the file at the same
// path invalidates the memoized rows instead of serving stale ones.
func TestSweepStoreTraceSourcedContent(t *testing.T) {
	t.Cleanup(workloads.SnapshotRegistry())
	rec := NewHarness(0.02)
	path := filepath.Join(t.TempDir(), "rec.wtrc")
	if err := trace.WriteFile(path, rec.App("delaunay").Tr); err != nil {
		t.Fatal(err)
	}
	if err := workloads.Register(workloads.AppSpec{Name: "rec-app", Suite: "trace", TracePath: path}); err != nil {
		t.Fatal(err)
	}
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	var stats SweepStats
	cfg := SweepConfig{Apps: []string{"rec-app"}, Kinds: []schemes.Kind{schemes.KindJigsaw},
		Store: store, Stats: &stats}
	if _, err := NewHarness(0.02).Sweep(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := NewHarness(0.02).Sweep(cfg); err != nil {
		t.Fatal(err)
	}
	if stats.Served != 1 {
		t.Fatalf("unchanged recording not served: %+v", stats)
	}

	// Re-record different content at the same path: must recompute.
	if err := trace.WriteFile(path, rec.App("hull").Tr); err != nil {
		t.Fatal(err)
	}
	if _, err := NewHarness(0.02).Sweep(cfg); err != nil {
		t.Fatal(err)
	}
	if stats.Served != 0 || stats.Computed != 1 {
		t.Fatalf("re-recorded trace served stale rows: %+v", stats)
	}
}
