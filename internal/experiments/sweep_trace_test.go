package experiments

import (
	"context"
	"path/filepath"
	"testing"

	"whirlpool/internal/obs"
	"whirlpool/internal/results"
	"whirlpool/internal/schemes"
)

// countSpans tallies collected spans by name.
func countSpans(spans []obs.Span) map[string]int {
	n := map[string]int{}
	for _, s := range spans {
		n[s.Name]++
	}
	return n
}

// TestSweepEmitsStageSpans drives a tiny store-backed sweep with a
// tracer attached and checks the per-cell stage spans: every span in
// one trace, sweep.cell/sim.run/store.commit per computed cell,
// trace.load per app with the mmap attr, and on a warm resubmit
// store.lookup hits with no sim.run at all.
func TestSweepEmitsStageSpans(t *testing.T) {
	dir := t.TempDir()
	store, err := results.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatalf("results.Open: %v", err)
	}
	defer store.Close()

	tr := obs.New(256)
	root := tr.Start(obs.SpanContext{}, "job")
	ctx := obs.NewContext(context.Background(), root.Context())

	h := NewHarness(0.02)
	kinds := []schemes.Kind{schemes.KindJigsaw}
	cfg := SweepConfig{
		Apps:    []string{"delaunay", "MIS"},
		Kinds:   kinds,
		Workers: 2,
		Context: ctx,
		Store:   store,
		Tracer:  tr,
	}
	if _, err := h.Sweep(cfg); err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	root.End()

	spans := tr.Collect(root.Trace)
	byName := countSpans(spans)
	if byName["sweep.cell"] != 2 || byName["sim.run"] != 2 || byName["store.commit"] != 2 {
		t.Fatalf("cold sweep spans = %v, want 2 each of sweep.cell/sim.run/store.commit", byName)
	}
	if byName["trace.load"] != 2 {
		t.Fatalf("trace.load spans = %d, want 2 (one per app)", byName["trace.load"])
	}
	if byName["store.lookup"] != 2 {
		t.Fatalf("store.lookup spans = %d, want 2", byName["store.lookup"])
	}
	for _, s := range spans {
		switch s.Name {
		case "trace.load":
			if _, ok := s.Attr("mmap"); !ok {
				t.Errorf("trace.load span missing mmap attr")
			}
		case "store.lookup":
			if a, ok := s.Attr("hit"); !ok {
				t.Errorf("store.lookup span missing hit attr")
			} else if hit, _ := a.IsBool(); hit {
				t.Errorf("cold store.lookup reported a hit")
			}
		case "sim.run":
			if a, ok := s.Attr("scheme"); !ok {
				t.Errorf("sim.run missing scheme attr")
			} else if v, _ := a.IsStr(); v != "jigsaw" {
				t.Errorf("sim.run scheme = %q", v)
			}
		case "sweep.cell":
			if s.Parent != root.Context().Span {
				t.Errorf("sweep.cell not parented under the job span")
			}
		}
	}

	// Warm resubmit: everything served, nothing simulated.
	tr2 := obs.New(256)
	root2 := tr2.Start(obs.SpanContext{}, "job")
	cfg.Context = obs.NewContext(context.Background(), root2.Context())
	cfg.Tracer = tr2
	if _, err := h.Sweep(cfg); err != nil {
		t.Fatalf("warm Sweep: %v", err)
	}
	root2.End()
	warm := countSpans(tr2.Collect(root2.Trace))
	if warm["sim.run"] != 0 || warm["sweep.cell"] != 0 {
		t.Fatalf("warm sweep simulated: %v", warm)
	}
	if warm["store.lookup"] != 2 {
		t.Fatalf("warm store.lookup spans = %d, want 2", warm["store.lookup"])
	}
	for _, s := range tr2.Collect(root2.Trace) {
		if s.Name != "store.lookup" {
			continue
		}
		if a, ok := s.Attr("hit"); !ok {
			t.Fatal("warm store.lookup missing hit attr")
		} else if hit, _ := a.IsBool(); !hit {
			t.Fatal("warm store.lookup missed")
		}
	}
}

// TestSweepWithoutTracerIsNoop pins the nil-tracer contract: a sweep
// with no Tracer runs identically and emits nothing.
func TestSweepWithoutTracerIsNoop(t *testing.T) {
	h := NewHarness(0.02)
	rows, err := h.Sweep(SweepConfig{
		Apps:  []string{"delaunay"},
		Kinds: []schemes.Kind{schemes.KindJigsaw},
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(rows) != 1 || rows[0].Err != "" {
		t.Fatalf("rows = %+v", rows)
	}
}

// TestSweepCellSpanAllocBudget is the acceptance-criteria guard: the
// full per-cell span sequence runLocal emits (sweep.cell + sim.run +
// store.commit, with their attrs) must stay within 2 allocations per
// cell. With pooled spans it is zero.
func TestSweepCellSpanAllocBudget(t *testing.T) {
	tr := obs.New(1024)
	parent := obs.SpanContext{}
	root := tr.Start(parent, "job")
	parent = root.Context()
	root.End()

	perCell := func() {
		cell := tr.Start(parent, "sweep.cell")
		cell.SetStr("app", "delaunay")
		cell.SetStr("scheme", "jigsaw")
		sp := tr.Start(cell.Context(), "sim.run")
		sp.SetStr("app", "delaunay")
		sp.SetStr("scheme", "jigsaw")
		sp.SetInt("cells", 1)
		sp.End()
		sp = tr.Start(cell.Context(), "store.commit")
		sp.End()
		cell.End()
	}
	perCell() // warm the span pool
	if avg := testing.AllocsPerRun(200, perCell); avg > 2 {
		t.Fatalf("per-cell span sequence allocates %v per cell, budget is 2", avg)
	}
}

// BenchmarkSweepSpanEmit times the sequence TestSweepCellSpanAllocBudget
// holds to its allocation budget; make bench-ab fails it if its
// allocs/op rises past the base revision's.
func BenchmarkSweepSpanEmit(b *testing.B) {
	tr := obs.New(obs.DefaultRingSize)
	root := tr.Start(obs.SpanContext{}, "job")
	parent := root.Context()
	root.End()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cell := tr.Start(parent, "sweep.cell")
		cell.SetStr("app", "delaunay")
		cell.SetStr("scheme", "jigsaw")
		sp := tr.Start(cell.Context(), "sim.run")
		sp.SetStr("app", "delaunay")
		sp.SetStr("scheme", "jigsaw")
		sp.SetInt("cells", 1)
		sp.End()
		sp = tr.Start(cell.Context(), "store.commit")
		sp.End()
		cell.End()
	}
}
