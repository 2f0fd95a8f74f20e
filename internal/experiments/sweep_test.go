package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"whirlpool/internal/noc"
	"whirlpool/internal/schemes"
)

// The sweep engine must produce rows identical to serial single-app
// runs: same trace cache, same seed, no cross-worker interference.
func TestSweepMatchesSerial(t *testing.T) {
	apps := []string{"delaunay", "MIS", "mcf"}
	kinds := schemes.AllKinds()

	sweepH := NewHarness(0.1)
	rows, err := sweepH.Sweep(SweepConfig{Apps: apps, Kinds: kinds, Workers: 4})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(rows) != len(apps)*len(kinds) {
		t.Fatalf("got %d rows, want %d", len(rows), len(apps)*len(kinds))
	}

	serialH := NewHarness(0.1)
	i := 0
	for _, app := range apps {
		for _, k := range kinds {
			row := rows[i]
			i++
			if row.Err != "" {
				t.Fatalf("%s/%v: sweep error: %s", app, k, row.Err)
			}
			if row.App != app || row.Scheme != k.ID() {
				t.Fatalf("row %d is (%s,%s), want (%s,%s): grid order broken",
					i-1, row.App, row.Scheme, app, k.ID())
			}
			r := must(serialH.RunSingle(app, k, RunOptions{}))
			if row.Cycles != r.Cycles || row.Instrs != r.Instrs ||
				row.Hits != r.Hits || row.Misses != r.Misses ||
				row.Bypasses != r.Bypasses || row.LLCAccesses != r.Demand {
				t.Errorf("%s/%v: sweep row %+v != serial result cycles=%d instrs=%d hits=%d misses=%d byp=%d demand=%d",
					app, k, row, r.Cycles, r.Instrs, r.Hits, r.Misses, r.Bypasses, r.Demand)
			}
			if row.EnergyPJ != r.Energy.Total() {
				t.Errorf("%s/%v: sweep energy %g != serial %g", app, k, row.EnergyPJ, r.Energy.Total())
			}
		}
	}
}

// Trace generation is the expensive part: a full-grid sweep must build
// each app exactly once, not once per scheme.
func TestSweepTraceCacheReuse(t *testing.T) {
	h := NewHarness(0.05)
	apps := []string{"delaunay", "MIS", "mcf"}
	rows, err := h.Sweep(SweepConfig{Apps: apps, Workers: 4})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(rows) != len(apps)*6 {
		t.Fatalf("got %d rows, want %d", len(rows), len(apps)*6)
	}
	if got := h.CacheStats().Builds; got != int64(len(apps)) {
		t.Errorf("built %d traces for %d apps × 6 schemes, want %d (one per app)",
			got, len(apps), len(apps))
	}
}

// Mix rows run through the same engine and match serial RunMix.
func TestSweepMixMatchesSerial(t *testing.T) {
	mix := SweepMix{Name: "duo", Apps: []string{"delaunay", "MIS"}}
	kinds := []schemes.Kind{schemes.KindSNUCALRU, schemes.KindWhirlpool}

	sweepH := NewHarness(0.05)
	rows, err := sweepH.Sweep(SweepConfig{Mixes: []SweepMix{mix}, Kinds: kinds, Workers: 2})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	serialH := NewHarness(0.05)
	for i, k := range kinds {
		row := rows[i]
		if row.Err != "" {
			t.Fatalf("%v: %s", k, row.Err)
		}
		if !row.Mix || row.App != "duo" {
			t.Fatalf("row %d not marked as mix duo: %+v", i, row)
		}
		r := must(serialH.RunMix(mix.Apps, k, noc.FourCoreChip(), false))
		if row.Cycles != r.Cycles || row.Hits != r.Hits || row.Misses != r.Misses {
			t.Errorf("%v: mix row %+v != serial cycles=%d hits=%d misses=%d",
				k, row, r.Cycles, r.Hits, r.Misses)
		}
	}
}

func TestSweepUnknownApp(t *testing.T) {
	h := NewHarness(0.05)
	_, err := h.Sweep(SweepConfig{Apps: []string{"delaunay", "nosuchapp"}})
	if err == nil {
		t.Fatal("Sweep accepted an unknown app")
	}
	if !strings.Contains(err.Error(), "nosuchapp") {
		t.Errorf("error %q does not name the unknown app", err)
	}
	if h.CacheStats().Builds != 0 {
		t.Errorf("sweep built %d traces before failing validation, want 0", h.CacheStats().Builds)
	}
}

// TestSweepDuplicateNames: a repeated app, mix or scheme is rejected
// before any trace is built, in whirld's wording, instead of simulating
// and printing the same cells once per copy.
func TestSweepDuplicateNames(t *testing.T) {
	lru := []schemes.Kind{schemes.KindSNUCALRU}
	for _, tc := range []struct {
		cfg  SweepConfig
		want string
	}{
		{SweepConfig{Apps: []string{"delaunay", "delaunay"}, Kinds: lru}, `duplicate app "delaunay"`},
		{SweepConfig{Apps: []string{"delaunay"}, Kinds: append(lru, lru...)}, `duplicate scheme "snuca-lru"`},
		{SweepConfig{Mixes: []SweepMix{{Name: "m", Apps: []string{"MIS"}}, {Name: "m", Apps: []string{"mcf"}}}, Kinds: lru}, `duplicate mix "m"`},
	} {
		h := NewHarness(0.05)
		rows, err := h.Sweep(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v (%d rows), want %s", err, len(rows), tc.want)
		}
		if h.CacheStats().Builds != 0 {
			t.Errorf("%s: built %d traces before failing validation", tc.want, h.CacheStats().Builds)
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	h := NewHarness(0.05)
	if _, err := h.Sweep(SweepConfig{}); err == nil {
		t.Fatal("empty sweep should error")
	}
}

func TestSweepWriters(t *testing.T) {
	h := NewHarness(0.05)
	rows, err := h.Sweep(SweepConfig{
		Apps:  []string{"delaunay"},
		Kinds: []schemes.Kind{schemes.KindSNUCALRU},
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	var csvBuf, jsonBuf, tableBuf bytes.Buffer
	if err := WriteRowsCSV(&csvBuf, rows); err != nil {
		t.Fatalf("CSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header+1 row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "app,scheme,") || !strings.HasPrefix(lines[1], "delaunay,snuca-lru,") {
		t.Errorf("unexpected CSV:\n%s", csvBuf.String())
	}
	if err := WriteRowsJSON(&jsonBuf, rows); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if !strings.Contains(jsonBuf.String(), `"app": "delaunay"`) {
		t.Errorf("unexpected JSON:\n%s", jsonBuf.String())
	}
	if err := WriteRowsTable(&tableBuf, rows); err != nil {
		t.Fatalf("table: %v", err)
	}
	if !strings.Contains(tableBuf.String(), "delaunay") {
		t.Errorf("unexpected table:\n%s", tableBuf.String())
	}
}

// A canceled context aborts the sweep before any trace is built and
// marks unrun cells.
func TestSweepCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := NewHarness(0.05)
	rows, err := h.Sweep(SweepConfig{
		Apps:    []string{"delaunay", "MIS"},
		Context: ctx,
	})
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if h.CacheStats().Builds != 0 {
		t.Errorf("canceled sweep built %d traces, want 0", h.CacheStats().Builds)
	}
	for _, r := range rows {
		if r.Err != "canceled" {
			t.Fatalf("unrun cell not marked canceled: %+v", r)
		}
	}
}

// Canceling mid-sweep keeps the finished rows and skips the rest.
func TestSweepCanceledMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	h := NewHarness(0.05)
	rows, err := h.Sweep(SweepConfig{
		Apps:    []string{"delaunay", "MIS", "mcf"},
		Kinds:   []schemes.Kind{schemes.KindSNUCALRU, schemes.KindSNUCADRRIP},
		Workers: 1,
		Context: ctx,
		OnRow:   func(done, total int, row SweepRow) { cancel() },
	})
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	var finished, canceled int
	for _, r := range rows {
		switch r.Err {
		case "":
			finished++
		case "canceled":
			canceled++
		default:
			t.Fatalf("unexpected cell error: %+v", r)
		}
	}
	if finished == 0 || canceled == 0 {
		t.Fatalf("mid-sweep cancel: %d finished, %d canceled; want both nonzero", finished, canceled)
	}
}

// Pinned mixes place each app's stats at its pinned core and agree with
// the identity placement run on the same cores' apps.
func TestSweepPinnedMix(t *testing.T) {
	h := NewHarness(0.05)
	mix := SweepMix{
		Name: "pinned",
		Apps: []string{"delaunay", "MIS"},
		Pins: []int{3, 0},
	}
	rows, err := h.Sweep(SweepConfig{
		Mixes: []SweepMix{mix},
		Kinds: []schemes.Kind{schemes.KindWhirlpool},
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(rows) != 1 || rows[0].Err != "" {
		t.Fatalf("rows = %+v", rows)
	}
	serial := NewHarness(0.05)
	r := must(serial.RunMixPinned(mix.Apps, mix.Pins, schemes.KindWhirlpool, noc.FourCoreChip(), false))
	if rows[0].Cycles != r.Cycles || rows[0].Hits != r.Hits {
		t.Fatalf("sweep row %+v != serial pinned run cycles=%d hits=%d", rows[0], r.Cycles, r.Hits)
	}
	// delaunay was pinned to core 3, MIS to core 0.
	if r.Cores[3].Instrs == 0 || r.Cores[0].Instrs == 0 {
		t.Fatal("no stats at the pinned cores")
	}
	if r.Cores[1].Instrs != 0 || r.Cores[2].Instrs != 0 {
		t.Fatal("stats appeared at unpinned cores")
	}
}

// Pins spilling past 4 cores promote the mix onto the 16-core chip.
func TestSweepPinsPromoteChip(t *testing.T) {
	m := &SweepMix{Apps: []string{"a", "b"}, Pins: []int{0, 12}}
	if got := mixChip(m).NCores(); got != 16 {
		t.Fatalf("pin 12 resolved a %d-core chip, want 16", got)
	}
	m = &SweepMix{Apps: []string{"a", "b"}}
	if got := mixChip(m).NCores(); got != 4 {
		t.Fatalf("2-app mix resolved a %d-core chip, want 4", got)
	}
}

// Invalid pins fail sweep validation up front, before trace building.
func TestSweepPinValidation(t *testing.T) {
	h := NewHarness(0.05)
	bad := []SweepMix{
		{Name: "short", Apps: []string{"delaunay", "MIS"}, Pins: []int{0}},
		{Name: "dup", Apps: []string{"delaunay", "MIS"}, Pins: []int{1, 1}},
		{Name: "range", Apps: []string{"delaunay", "MIS"}, Pins: []int{0, 99}},
	}
	for _, m := range bad {
		if _, err := h.Sweep(SweepConfig{Mixes: []SweepMix{m}}); err == nil {
			t.Fatalf("mix %q with bad pins passed validation", m.Name)
		}
	}
	if h.CacheStats().Builds != 0 {
		t.Errorf("validation built %d traces, want 0", h.CacheStats().Builds)
	}
}

// hexaChip is a 6×6-bank mesh with six border cores.
func hexaChip(t *testing.T) *noc.Chip {
	chip, err := noc.Desc{W: 6, H: 6, Cores: 6}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// A mix with its own chip runs on it.
func TestSweepMixChipOverride(t *testing.T) {
	h := NewHarness(0.05)
	chip := hexaChip(t)
	rows, err := h.Sweep(SweepConfig{
		Mixes: []SweepMix{{
			Name: "hexa",
			Apps: []string{"delaunay", "MIS", "mcf", "lbm", "hull", "cactus"},
			Chip: chip,
		}},
		Kinds: []schemes.Kind{schemes.KindSNUCALRU},
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(rows) != 1 || rows[0].Err != "" {
		t.Fatalf("rows = %+v", rows)
	}
	serial := NewHarness(0.05)
	r := must(serial.RunMix([]string{"delaunay", "MIS", "mcf", "lbm", "hull", "cactus"},
		schemes.KindSNUCALRU, hexaChip(t), false))
	if rows[0].Cycles != r.Cycles {
		t.Fatalf("sweep on custom chip %+v != serial cycles=%d", rows[0], r.Cycles)
	}
}

// Progress callbacks arrive once per cell with monotonically increasing
// done counts.
func TestSweepProgress(t *testing.T) {
	h := NewHarness(0.05)
	var seen []int
	_, err := h.Sweep(SweepConfig{
		Apps:    []string{"delaunay", "MIS"},
		Kinds:   []schemes.Kind{schemes.KindSNUCALRU},
		Workers: 2,
		OnRow:   func(done, total int, row SweepRow) { seen = append(seen, done*100+total) },
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(seen) != 2 || seen[0] != 102 || seen[1] != 202 {
		t.Errorf("progress callbacks = %v, want [102 202]", seen)
	}
}
