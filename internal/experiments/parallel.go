package experiments

import (
	"whirlpool/internal/addr"
	"whirlpool/internal/energy"
	"whirlpool/internal/llc"
	"whirlpool/internal/noc"
	"whirlpool/internal/paws"
	"whirlpool/internal/schemes"
	"whirlpool/internal/sim"
	"whirlpool/internal/trace"
)

// ParallelVariant is one bar of Fig 13.
type ParallelVariant int

// The four evaluated combinations.
const (
	VariantSNUCA         ParallelVariant = iota // S-NUCA + conventional stealing
	VariantJigsaw                               // Jigsaw + conventional stealing
	VariantJigsawPaWS                           // Jigsaw + PaWS
	VariantWhirlpoolPaWS                        // Whirlpool + PaWS
)

// String returns the figure label.
func (v ParallelVariant) String() string {
	switch v {
	case VariantSNUCA:
		return "SNUCA"
	case VariantJigsaw:
		return "Jigsaw"
	case VariantJigsawPaWS:
		return "J+PaWS"
	case VariantWhirlpoolPaWS:
		return "W+PaWS"
	}
	return "?"
}

// ParallelVariants lists Fig 13's bars in order.
func ParallelVariants() []ParallelVariant {
	return []ParallelVariant{VariantSNUCA, VariantJigsaw, VariantJigsawPaWS, VariantWhirlpoolPaWS}
}

// parallelTraces caches the filtered per-core traces for one (app,
// policy) pair.
func (h *Harness) parallelTraces(app *paws.App, policy paws.Policy, mesh *noc.Mesh) []trace.Reader {
	sched := paws.Run(app, len(mesh.Cores), policy, mesh, h.Seed)
	out := make([]trace.Reader, len(sched.Streams))
	for c, accs := range sched.Streams {
		out[c] = trace.FilterPrivate(&trace.SliceStream{Accs: accs})
	}
	return out
}

// RunParallel runs one parallel app under one variant on the 16-core chip
// (Fig 13).
func (h *Harness) RunParallel(appName string, variant ParallelVariant) (*sim.Result, error) {
	spec, ok := paws.SpecByName(appName)
	if !ok {
		panic("experiments: unknown parallel app " + appName)
	}
	chip := noc.SixteenCoreChip()
	app := paws.Build(spec, chip.NCores(), h.Seed)
	// Parallel runs complete in far fewer wall cycles (the work splits 16
	// ways), so the runtime must reconfigure proportionally faster to see
	// the same number of adaptation steps as the paper's long runs.
	reconfig := h.ReconfigCycles / 4

	policy := paws.Conventional
	if variant == VariantJigsawPaWS || variant == VariantWhirlpoolPaWS {
		policy = paws.PaWS
	}
	traces := h.parallelTraces(app, policy, chip.Mesh)

	meter := &energy.Meter{}
	var l llc.LLC
	switch variant {
	case VariantSNUCA:
		l = schemes.Build(schemes.KindSNUCALRU, schemes.Options{Chip: chip, Meter: meter})
	case VariantJigsaw, VariantJigsawPaWS:
		// Work-stealing makes most pages process-shared, so baseline
		// Jigsaw sees one process VC (Sec 3.4).
		l = schemes.Build(schemes.KindJigsaw, schemes.Options{
			Chip: chip, Meter: meter,
			JigsawClassify: llc.ProcessShared,
			ReconfigCycles: reconfig,
		})
	case VariantWhirlpoolPaWS:
		// One process-shared VC per partition pool, placed near its users.
		poolOf := func(line addr.Line) llc.VCKey {
			return llc.VCKey{Core: llc.SharedVC, Pool: app.PoolOfLine(line)}
		}
		l = schemes.Build(schemes.KindWhirlpool, schemes.Options{
			Chip: chip, Meter: meter,
			WhirlpoolClassify: func(core int, line addr.Line) llc.VCKey { return poolOf(line) },
			ReconfigCycles:    reconfig,
		})
	}
	return sim.Run(sim.Config{
		LLC:    l,
		Meter:  meter,
		Traces: traces,
		Warmup: true,
	})
}
