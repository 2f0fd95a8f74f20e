package sim

import (
	"testing"

	"whirlpool/internal/energy"
	"whirlpool/internal/trace"
)

// benchTrace is a ~60k-access synthetic trace shared by the sim-level
// benchmarks (built once; all benches replay it read-only).
func benchTrace() *trace.LLCTrace {
	return mkMixedTrace(50_000, 10, 3)
}

// benchCfg shares one LLC stub and meter across iterations so allocs/op
// isolates the simulator's own per-run allocations (the stub's warm
// state is irrelevant: these benches never compare rows).
func benchCfg(llc *fakeLLC, m *energy.Meter, traces ...trace.Reader) Config {
	return Config{LLC: llc, Meter: m, Traces: traces}
}

// BenchmarkSimRunFresh is the single-core per-cell cost: every run
// allocates its replay states, cursor, and scheduler scratch.
func BenchmarkSimRunFresh(b *testing.B) {
	tr := benchTrace()
	llc, m := &fakeLLC{hitLat: 10, missLat: 100}, &energy.Meter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := mustRun(b, benchCfg(llc, m, tr, nil, nil, nil)); r.Demand == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkSimRunMixMultiCore exercises the lagging-core pick with four
// active cores under fixed-work Loop.
func BenchmarkSimRunMixMultiCore(b *testing.B) {
	t1, t2 := benchTrace(), mkMixedTrace(40_000, 7, 5)
	t3, t4 := mkMixedTrace(30_000, 13, 2), mkMixedTrace(20_000, 9, 7)
	llc, m := &fakeLLC{hitLat: 10, missLat: 100}, &energy.Meter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(llc, m, t1, t2, t3, t4)
		cfg.Loop = true
		if r := mustRun(b, cfg); r.Demand == 0 {
			b.Fatal("empty run")
		}
	}
}
