// Benchmarks that regenerate every table and figure in the paper's
// evaluation (docs/design.md maps each to its experiment). Each benchmark
// prints nothing by default; run cmd/whirlbench to see the tables. The
// -whirl.scale flag trades fidelity for speed (1.0 = full runs).
package whirlpool_test

import (
	"flag"
	"testing"

	"whirlpool"
)

var benchScale = flag.Float64("whirl.scale", 0.2, "workload scale for figure benchmarks")

func figOpt() *whirlpool.FigureOptions {
	return &whirlpool.FigureOptions{Scale: *benchScale, Mixes: 4}
}

func benchFigure(b *testing.B, id string, opt *whirlpool.FigureOptions) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := whirlpool.Figure(id, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty figure output")
		}
	}
}

// BenchmarkFig02DtBreakdown regenerates Fig 2: dt's working set and
// per-pool access intensity.
func BenchmarkFig02DtBreakdown(b *testing.B) { benchFigure(b, "fig2", figOpt()) }

// BenchmarkFig05DtPlacement regenerates Figs 3-5: dt's placement maps
// under S-NUCA, Jigsaw, and Whirlpool.
func BenchmarkFig05DtPlacement(b *testing.B) { benchFigure(b, "fig5", figOpt()) }

// BenchmarkFig06LbmPhases regenerates Fig 6: lbm's alternating per-pool
// access pattern.
func BenchmarkFig06LbmPhases(b *testing.B) { benchFigure(b, "fig6", figOpt()) }

// BenchmarkFig08DtCurves regenerates Fig 8: dt's per-pool miss curves.
func BenchmarkFig08DtCurves(b *testing.B) { benchFigure(b, "fig8", figOpt()) }

// BenchmarkFig09MisCurves regenerates Fig 9: mis's per-pool miss curves.
func BenchmarkFig09MisCurves(b *testing.B) { benchFigure(b, "fig9", figOpt()) }

// BenchmarkFig10MisBreakdown regenerates Fig 10: mis across all six
// schemes.
func BenchmarkFig10MisBreakdown(b *testing.B) { benchFigure(b, "fig10", figOpt()) }

// BenchmarkFig11RefineAdapt regenerates Fig 11: refine's allocations over
// time as the runtime adapts to irregular phases.
func BenchmarkFig11RefineAdapt(b *testing.B) { benchFigure(b, "fig11", figOpt()) }

// BenchmarkFig13PaWS regenerates Fig 13: the six parallel apps under
// S-NUCA / Jigsaw / J+PaWS / W+PaWS on 16 cores.
func BenchmarkFig13PaWS(b *testing.B) { benchFigure(b, "fig13", figOpt()) }

// BenchmarkFig16WhirlTool regenerates Fig 16: WhirlTool with 2/3/4 pools
// vs manual classification, over the suite.
func BenchmarkFig16WhirlTool(b *testing.B) {
	opt := figOpt()
	// The full 31-app sweep belongs to whirlbench; bench a spread that
	// covers the paper's callouts (manual apps, gains, and a flat case).
	opt.Apps = []string{"delaunay", "MIS", "mcf", "cactus", "lbm", "libqntm", "sphinx3", "hull"}
	benchFigure(b, "fig16", opt)
}

// BenchmarkFig17Dendrograms regenerates Fig 17: clustering dendrograms
// for dt and omnetpp.
func BenchmarkFig17Dendrograms(b *testing.B) { benchFigure(b, "fig17", figOpt()) }

// BenchmarkFig18TrainInputs regenerates Fig 18: train-vs-ref profiling
// sensitivity.
func BenchmarkFig18TrainInputs(b *testing.B) { benchFigure(b, "fig18", figOpt()) }

// BenchmarkFig19CactusBreakdown regenerates Fig 19.
func BenchmarkFig19CactusBreakdown(b *testing.B) { benchFigure(b, "fig19", figOpt()) }

// BenchmarkFig20SABreakdown regenerates Fig 20.
func BenchmarkFig20SABreakdown(b *testing.B) { benchFigure(b, "fig20", figOpt()) }

// BenchmarkFig21Overall regenerates Fig 21: the whole single-threaded
// suite under all six schemes.
func BenchmarkFig21Overall(b *testing.B) { benchFigure(b, "fig21", figOpt()) }

// BenchmarkFig22Mixes regenerates Fig 22: weighted speedups over
// multi-programmed mixes at 4 and 16 cores.
func BenchmarkFig22Mixes(b *testing.B) { benchFigure(b, "fig22", figOpt()) }

// BenchmarkFig23CombineModel regenerates Fig 23: the Appendix B
// miss-curve combining model.
func BenchmarkFig23CombineModel(b *testing.B) { benchFigure(b, "fig23", nil) }

// BenchmarkTable2ManualPools regenerates Table 2.
func BenchmarkTable2ManualPools(b *testing.B) { benchFigure(b, "table2", figOpt()) }

// BenchmarkTable3Config regenerates Table 3.
func BenchmarkTable3Config(b *testing.B) { benchFigure(b, "table3", nil) }

// BenchmarkAblationLatencyCurves sizes VCs with latency curves vs pure
// miss curves (Sec 2.4's design argument).
func BenchmarkAblationLatencyCurves(b *testing.B) { benchFigure(b, "ablation-latency", figOpt()) }

// BenchmarkAblationTrading compares trading placement vs greedy-only.
func BenchmarkAblationTrading(b *testing.B) { benchFigure(b, "ablation-trading", figOpt()) }

// BenchmarkAblationBypass quantifies VC bypassing for Jigsaw/Whirlpool.
func BenchmarkAblationBypass(b *testing.B) {
	opt := figOpt()
	opt.Apps = []string{"MIS", "cactus", "delaunay", "libqntm"}
	benchFigure(b, "ablation-bypass", opt)
}

// BenchmarkRunWhirlpoolDt measures the simulator's own throughput on the
// flagship workload (not a paper figure; a library micro-benchmark).
func BenchmarkRunWhirlpoolDt(b *testing.B) {
	e := whirlpool.New("delaunay", whirlpool.Whirlpool, whirlpool.WithScale(*benchScale))
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
