package experiments

import (
	"testing"

	"whirlpool/internal/schemes"
)

// The harness-level benchmarks (guarded by make bench-ab): what one app
// costs to load cold (generate + private-filter) vs warm (streamed from
// the on-disk .wtrc cache), and what one simulation pass costs once the
// trace is resident.

// BenchmarkHarnessTraceColdLoad measures a cold trace load: fresh
// harness, no disk cache — the price every CLI invocation used to pay.
func BenchmarkHarnessTraceColdLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := NewHarness(0.05)
		if _, err := h.AppErr("delaunay"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarnessTraceWarmLoad measures a warm trace load: fresh
// harness streaming the trace back from a warm on-disk cache.
func BenchmarkHarnessTraceWarmLoad(b *testing.B) {
	dir := b.TempDir()
	warm := NewHarness(0.05)
	warm.CacheDir = dir
	if _, err := warm.AppErr("delaunay"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewHarness(0.05)
		h.CacheDir = dir
		if _, err := h.AppErr("delaunay"); err != nil {
			b.Fatal(err)
		}
		if s := h.CacheStats(); s.DiskHits != 1 {
			b.Fatalf("cache miss during warm bench: %+v", s)
		}
	}
}

// BenchmarkSimRunDelaunay measures one sim.Run replay (S-NUCA LRU, the
// cheapest scheme) against a resident trace: the per-scheme marginal
// cost of a sweep cell.
func BenchmarkSimRunDelaunay(b *testing.B) {
	h := NewHarness(0.05)
	h.App("delaunay") // build outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := must(h.RunSingle("delaunay", schemes.KindSNUCALRU, RunOptions{}))
		if r.Demand == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkSweepBatchedSameApp measures the batched sweep shape the
// scheduler optimizes for: every scheme of one app on one worker, the
// app's trace built once outside the timer, each cell replaying the
// shared trace reader.
func BenchmarkSweepBatchedSameApp(b *testing.B) {
	h := NewHarness(0.05)
	h.App("delaunay")
	kinds := []schemes.Kind{schemes.KindSNUCALRU, schemes.KindSNUCADRRIP, schemes.KindAwasthi}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := h.Sweep(SweepConfig{Apps: []string{"delaunay"}, Kinds: kinds, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Err != "" {
				b.Fatal(r.Err)
			}
		}
	}
}
