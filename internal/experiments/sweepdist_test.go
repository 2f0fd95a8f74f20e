package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"whirlpool/internal/results"
	"whirlpool/internal/schemes"
	"whirlpool/internal/trace"
	"whirlpool/internal/workloads"
)

// registerEmptyTraceApp registers an app whose recording holds zero
// accesses — the zero-cycle, zero-instruction corner every division in
// the row builder must survive.
func registerEmptyTraceApp(t *testing.T, name string) {
	t.Helper()
	t.Cleanup(workloads.SnapshotRegistry())
	p := filepath.Join(t.TempDir(), "empty.wtrc")
	if err := trace.WriteFile(p, &trace.LLCTrace{}); err != nil {
		t.Fatal(err)
	}
	workloads.Register(workloads.AppSpec{Name: name, Suite: "trace", TracePath: p})
}

// A zero-cycle cell must produce a finite row: IPC 0 (not NaN), and the
// row must survive json.Marshal — NaN would make the serving path drop
// or corrupt it.
func TestSweepZeroCycleRow(t *testing.T) {
	registerEmptyTraceApp(t, "zc_app")
	h := NewHarness(1)
	rows, err := h.Sweep(SweepConfig{Apps: []string{"zc_app"}, Kinds: []schemes.Kind{schemes.KindJigsaw}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Err != "" {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	if r.Cycles != 0 || r.Instrs != 0 {
		t.Fatalf("empty trace simulated work: %+v", r)
	}
	if r.IPC != 0 || r.APKI != 0 || r.MPKI != 0 {
		t.Fatalf("zero-cycle row has non-zero rates (NaN guard missing?): %+v", r)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("zero-cycle row does not marshal: %v", err)
	}
	var back SweepRow
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteRowsJSON(&buf, rows); err != nil {
		t.Fatalf("WriteRowsJSON on a zero-cycle row: %v", err)
	}
}

// Canceled cells must flow through OnRow like any other resolution, so
// progress observers see done reach total even on aborted sweeps.
func TestSweepCanceledRowsReachOnRow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	h := NewHarness(0.05)
	var rowsSeen, canceledSeen, lastDone, total int
	rows, err := h.Sweep(SweepConfig{
		Apps:    []string{"delaunay", "MIS", "mcf"},
		Kinds:   []schemes.Kind{schemes.KindSNUCALRU, schemes.KindSNUCADRRIP},
		Workers: 1,
		Context: ctx,
		OnRow: func(done, tot int, row SweepRow) {
			cancel()
			rowsSeen++
			lastDone, total = done, tot
			if row.Err == "canceled" {
				canceledSeen++
			}
		},
	})
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if rowsSeen != len(rows) || lastDone != total || total != len(rows) {
		t.Fatalf("OnRow saw %d rows, last done=%d/%d; want every one of %d cells observed",
			rowsSeen, lastDone, total, len(rows))
	}
	if canceledSeen == 0 {
		t.Fatal("no canceled rows reached OnRow")
	}
}

// Explicit Cells grids run exactly the named cells, in order, and are
// bit-identical to the same cells from a cross-product sweep.
func TestSweepExplicitCells(t *testing.T) {
	full, err := NewHarness(0.05).Sweep(SweepConfig{
		Apps:  []string{"delaunay", "MIS"},
		Mixes: []SweepMix{{Name: "duo", Apps: []string{"delaunay", "MIS"}}},
		Kinds: []schemes.Kind{schemes.KindSNUCALRU, schemes.KindJigsaw},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A hand-picked, reordered subset of the same grid.
	cells := []SweepCell{
		{Mix: "duo", Scheme: "jigsaw"},
		{App: "MIS", Scheme: "snuca-lru"},
		{App: "delaunay", Scheme: "jigsaw"},
	}
	got, err := NewHarness(0.05).Sweep(SweepConfig{
		Mixes: []SweepMix{{Name: "duo", Apps: []string{"delaunay", "MIS"}}},
		Cells: cells,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cells) {
		t.Fatalf("got %d rows for %d cells", len(got), len(cells))
	}
	find := func(app string, mix bool, scheme string) SweepRow {
		for _, r := range full {
			if r.App == app && r.Mix == mix && r.Scheme == scheme {
				return r
			}
		}
		t.Fatalf("no full-grid row for %s/%s", app, scheme)
		return SweepRow{}
	}
	for i, c := range cells {
		want := find(c.App+c.Mix, c.Mix != "", c.Scheme)
		g := got[i]
		g.WallMS, want.WallMS = 0, 0
		if !reflect.DeepEqual(g, want) {
			t.Errorf("cell %d differs from cross-product run:\n  cells: %+v\n  full:  %+v", i, g, want)
		}
	}

	// Bad cells fail validation up front.
	bad := []SweepCell{
		{Scheme: "jigsaw"},
		{App: "delaunay", Mix: "duo", Scheme: "jigsaw"},
		{Mix: "nosuch", Scheme: "jigsaw"},
		{App: "delaunay", Scheme: "bogus"},
	}
	for _, c := range bad {
		if _, err := NewHarness(0.05).Sweep(SweepConfig{
			Mixes: []SweepMix{{Name: "duo", Apps: []string{"delaunay"}}},
			Cells: []SweepCell{c},
		}); err == nil {
			t.Errorf("cell %+v passed validation", c)
		}
	}
	// Duplicate cells would collide in remote row routing.
	if _, err := NewHarness(0.05).Sweep(SweepConfig{
		Cells: []SweepCell{
			{App: "delaunay", Scheme: "jigsaw"},
			{App: "delaunay", Scheme: "jigsaw"},
		},
	}); err == nil || !strings.Contains(err.Error(), "duplicate cell") {
		t.Errorf("duplicate cells passed validation: %v", err)
	}
}

// Rows carry deterministic content-address keys even without a store:
// two independent sweeps of the same inputs agree, different inputs
// diverge, and the key matches what the store path uses.
func TestSweepRowKeys(t *testing.T) {
	cfg := SweepConfig{Apps: []string{"delaunay"}, Kinds: []schemes.Kind{schemes.KindJigsaw}}
	a, err := NewHarness(0.05).Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHarness(0.05).Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Key == "" || a[0].Key != b[0].Key {
		t.Fatalf("keys not deterministic: %q vs %q", a[0].Key, b[0].Key)
	}
	h := NewHarness(0.05)
	h.Seed = 42
	c, err := h.Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c[0].Key == a[0].Key {
		t.Fatal("different seed produced the same cell key")
	}

	// A store-served row carries the same key as the computed one.
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cold := cfg
	cold.Store = store
	coldRows, err := NewHarness(0.05).Sweep(cold)
	if err != nil {
		t.Fatal(err)
	}
	warmRows, err := NewHarness(0.05).Sweep(cold)
	if err != nil {
		t.Fatal(err)
	}
	if coldRows[0].Key != a[0].Key || warmRows[0].Key != a[0].Key {
		t.Fatalf("store path keys diverge: cold %q warm %q direct %q",
			coldRows[0].Key, warmRows[0].Key, a[0].Key)
	}
}

// A Remote executor replaces local simulation: the coordinator builds
// zero traces, delivered rows are committed to the store, and cells the
// executor never delivers become error rows (or canceled rows when the
// context was canceled) so the grid is always fully accounted for.
func TestSweepRemoteExec(t *testing.T) {
	want, err := NewHarness(0.05).Sweep(SweepConfig{
		Apps:  []string{"delaunay", "MIS"},
		Kinds: []schemes.Kind{schemes.KindSNUCALRU},
	})
	if err != nil {
		t.Fatal(err)
	}

	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	workerH := NewHarness(0.05) // the "remote" simulating node
	var stats SweepStats
	coordH := NewHarness(0.05)
	rows, err := coordH.Sweep(SweepConfig{
		Apps:  []string{"delaunay", "MIS"},
		Kinds: []schemes.Kind{schemes.KindSNUCALRU},
		Store: store,
		Stats: &stats,
		Remote: func(ctx context.Context, cells []CellRef, deliver func(CellRef, SweepRow)) error {
			for _, c := range cells {
				got, err := workerH.Sweep(SweepConfig{Cells: []SweepCell{c.Cell}, Workers: 1})
				if err != nil {
					return err
				}
				deliver(c, got[0])
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("remote sweep: %v", err)
	}
	if coordH.CacheStats().Builds != 0 {
		t.Errorf("coordinator built %d traces; remote sweeps must build none", coordH.CacheStats().Builds)
	}
	if stats.Computed != 2 || stats.Served != 0 {
		t.Errorf("stats = %+v, want 2 computed", stats)
	}
	for i := range rows {
		g, w := rows[i], want[i]
		g.WallMS, w.WallMS = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Errorf("remote row %d differs:\n  remote: %+v\n  local:  %+v", i, g, w)
		}
	}
	if store.Len() != 2 {
		t.Errorf("store holds %d rows after remote sweep, want 2 (per-cell commit)", store.Len())
	}

	// A warm resubmit is served locally: the executor must see no cells.
	var warmStats SweepStats
	warm, err := NewHarness(0.05).Sweep(SweepConfig{
		Apps:  []string{"delaunay", "MIS"},
		Kinds: []schemes.Kind{schemes.KindSNUCALRU},
		Store: store,
		Stats: &warmStats,
		Remote: func(ctx context.Context, cells []CellRef, deliver func(CellRef, SweepRow)) error {
			return fmt.Errorf("executor called with %d cells on a warm store", len(cells))
		},
	})
	if err != nil || warmStats.Served != 2 {
		t.Fatalf("warm remote sweep: err=%v stats=%+v", err, warmStats)
	}
	for i := range warm {
		g, w := warm[i], want[i]
		g.WallMS, w.WallMS = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Errorf("warm row %d differs from direct run", i)
		}
	}

	// An executor that fails leaves error rows, never silent holes.
	failRows, err := NewHarness(0.05).Sweep(SweepConfig{
		Apps:  []string{"delaunay"},
		Kinds: []schemes.Kind{schemes.KindSNUCALRU},
		Remote: func(ctx context.Context, cells []CellRef, deliver func(CellRef, SweepRow)) error {
			return fmt.Errorf("fleet on fire")
		},
	})
	if err == nil || !strings.Contains(err.Error(), "fleet on fire") {
		t.Fatalf("failed executor: err = %v", err)
	}
	if len(failRows) != 1 || !strings.Contains(failRows[0].Err, "fleet on fire") {
		t.Fatalf("failed executor rows = %+v", failRows)
	}

	// A canceled context marks undelivered cells canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cRows, err := NewHarness(0.05).Sweep(SweepConfig{
		Apps:    []string{"delaunay"},
		Kinds:   []schemes.Kind{schemes.KindSNUCALRU},
		Context: ctx,
		Remote: func(ctx context.Context, cells []CellRef, deliver func(CellRef, SweepRow)) error {
			return ctx.Err()
		},
	})
	if err == nil || len(cRows) != 1 || cRows[0].Err != "canceled" {
		t.Fatalf("canceled remote sweep: err=%v rows=%+v", err, cRows)
	}
}

// The CSV writer's key column round-trips and stays the last field, so
// `cut -d, -f1-16` keeps stripping exactly wall_ms and error.
func TestSweepCSVKeyColumn(t *testing.T) {
	rows := []SweepRow{{App: "a", Scheme: "s", Key: "k123"}}
	var buf bytes.Buffer
	if err := WriteRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasSuffix(lines[0], ",wall_ms,error,key") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasSuffix(lines[1], ",k123") {
		t.Fatalf("row = %q", lines[1])
	}
}
