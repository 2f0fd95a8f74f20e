package workloads

import (
	"slices"

	"whirlpool/internal/addr"
)

// The synthetic suite. Sizes, access splits, and phase behaviour of the
// apps the paper analyzes in detail (dt, mis, lbm, refine, cactus, SA,
// mcf, bzip2) follow the paper's own characterization; the rest are given
// plausible pool structures matching their known behaviour (streaming
// grids for milc/GemsFDTD/libquantum, pointer-heavy heaps for omnetpp/
// xalancbmk, etc.). All are memory-intensive (>5 L2 MPKI), as in App A.

const mb = addr.MB
const kb = addr.KB

func onePhase(weights ...float64) []PhaseSpec {
	return []PhaseSpec{{Len: 1, Weights: weights}}
}

// Specs returns the full single-threaded suite: 15 SPEC-like and 16
// PBBS-like apps (all PBBS but nbody, as in the paper).
func Specs() []AppSpec {
	return []AppSpec{
		// ------------------------- SPEC-like -------------------------
		{
			Name: "bzip2", Suite: "spec",
			Structs: []StructSpec{
				{Name: "arr1", Bytes: 4 * mb, Pattern: Zipf, Param: 0.8, WriteFrac: 0.3},
				{Name: "arr2", Bytes: 4 * mb, Pattern: Rand, WriteFrac: 0.3},
				{Name: "ftab", Bytes: 256 * kb, Pattern: Zipf, Param: 1.1, WriteFrac: 0.5},
				{Name: "tt", Bytes: 2 * mb, Pattern: Seq, WriteFrac: 0.5},
			},
			Phases: onePhase(0.35, 0.30, 0.15, 0.20),
			APKI:   35, Accesses: 3_000_000,
			ManualPools: [][]int{{0}, {1}, {2}, {3}}, ManualLOC: 43,
		},
		{
			Name: "gcc", Suite: "spec",
			Structs: []StructSpec{
				{Name: "rtl", Bytes: 3 * mb, Pattern: Chase, WriteFrac: 0.2},
				{Name: "symtab", Bytes: 1 * mb, Pattern: Zipf, Param: 0.9, WriteFrac: 0.1},
				{Name: "bitmaps", Bytes: 512 * kb, Pattern: Rand, WriteFrac: 0.4},
				{Name: "insns", Bytes: 6 * mb, Pattern: Seq, WriteFrac: 0.2},
			},
			Phases: []PhaseSpec{
				{Len: 0.5, Weights: []float64{0.4, 0.3, 0.2, 0.1}},
				{Len: 0.5, Weights: []float64{0.2, 0.2, 0.1, 0.5}},
			},
			PeriodFrac: 0.25,
			APKI:       30, Accesses: 3_000_000,
		},
		{
			Name: "mcf", Suite: "spec",
			Structs: []StructSpec{
				{Name: "nodes", Bytes: 1536 * kb, Pattern: Zipf, Param: 0.9, WriteFrac: 0.3},
				{Name: "arcs", Bytes: 96 * mb, Pattern: Chase, WriteFrac: 0.1},
			},
			Phases: onePhase(0.55, 0.45),
			APKI:   45, Accesses: 3_000_000,
			ManualPools: [][]int{{0}, {1}}, ManualLOC: 14,
		},
		{
			Name: "milc", Suite: "spec",
			Structs: []StructSpec{
				{Name: "links", Bytes: 96 * mb, Pattern: Seq, WriteFrac: 0.3},
				{Name: "fields", Bytes: 96 * mb, Pattern: Seq, WriteFrac: 0.4},
				{Name: "tmp", Bytes: 1 * mb, Pattern: Rand, WriteFrac: 0.5},
			},
			Phases: onePhase(0.45, 0.45, 0.10),
			APKI:   40, Accesses: 3_000_000,
		},
		{
			Name: "zeusmp", Suite: "spec",
			Structs: []StructSpec{
				{Name: "grid", Bytes: 8 * mb, Pattern: Seq, WriteFrac: 0.4},
				{Name: "stencil", Bytes: 2 * mb, Pattern: WSLoop, Param: 0.9, WriteFrac: 0.2},
			},
			Phases: onePhase(0.6, 0.4),
			APKI:   37, Accesses: 3_000_000,
		},
		{
			Name: "cactus", Suite: "spec",
			Structs: []StructSpec{
				{Name: "pugh", Bytes: 1536 * kb, Pattern: Zipf, Param: 0.7, WriteFrac: 0.2},
				{Name: "grid", Bytes: 128 * mb, Pattern: Seq, WriteFrac: 0.4},
			},
			Phases: onePhase(0.5, 0.5),
			APKI:   37, Accesses: 3_000_000,
			ManualPools: [][]int{{0}, {1}}, ManualLOC: 53,
		},
		{
			Name: "leslie", Suite: "spec",
			Structs: []StructSpec{
				{Name: "flux", Bytes: 6 * mb, Pattern: Seq, WriteFrac: 0.4},
				{Name: "state", Bytes: 4 * mb, Pattern: Rand, WriteFrac: 0.3},
				{Name: "coeffs", Bytes: 1 * mb, Pattern: Zipf, Param: 0.8, WriteFrac: 0.05},
			},
			Phases: []PhaseSpec{
				{Len: 0.7, Weights: []float64{0.4, 0.4, 0.2}},
				{Len: 0.3, Weights: []float64{0.7, 0.1, 0.2}},
			},
			PeriodFrac: 0.5,
			APKI:       35, Accesses: 3_000_000,
		},
		{
			Name: "soplex", Suite: "spec",
			Structs: []StructSpec{
				{Name: "matrix", Bytes: 10 * mb, Pattern: Rand, WriteFrac: 0.1},
				{Name: "vectors", Bytes: 1 * mb, Pattern: Zipf, Param: 0.9, WriteFrac: 0.4},
				{Name: "basis", Bytes: 2 * mb, Pattern: WSLoop, Param: 0.5, WriteFrac: 0.3},
			},
			Phases: []PhaseSpec{
				{Len: 0.6, Weights: []float64{0.5, 0.3, 0.2}},
				{Len: 0.4, Weights: []float64{0.2, 0.4, 0.4}},
			},
			PeriodFrac: 0.3,
			APKI:       32, Accesses: 3_000_000,
		},
		{
			Name: "gems", Suite: "spec",
			Structs: []StructSpec{
				{Name: "efield", Bytes: 96 * mb, Pattern: Seq, WriteFrac: 0.4},
				{Name: "hfield", Bytes: 96 * mb, Pattern: Seq, WriteFrac: 0.4},
				{Name: "coeff", Bytes: 2 * mb, Pattern: WSLoop, Param: 0.8, WriteFrac: 0.05},
			},
			Phases: onePhase(0.4, 0.4, 0.2),
			APKI:   40, Accesses: 3_000_000,
		},
		{
			Name: "libqntm", Suite: "spec",
			Structs: []StructSpec{
				{Name: "qureg", Bytes: 192 * mb, Pattern: Seq, WriteFrac: 0.5},
				{Name: "gates", Bytes: 512 * kb, Pattern: Zipf, Param: 1.0, WriteFrac: 0.1},
			},
			Phases: onePhase(0.85, 0.15),
			APKI:   42, Accesses: 3_000_000,
		},
		{
			// lbm: two grids indistinguishable on average, with markedly
			// different behaviour in alternating timesteps (Fig 6): the
			// source grid is accessed more and reuses well; the
			// destination sees little reuse. Pointers swap each step.
			Name: "lbm", Suite: "spec",
			Structs: []StructSpec{
				{Name: "grid1", Bytes: 12 * mb, Pattern: RandWS, Param: 0.4, WriteFrac: 0.2},
				{Name: "grid2", Bytes: 12 * mb, Pattern: Seq, WriteFrac: 0.8},
			},
			Phases: []PhaseSpec{
				{Len: 0.5, Weights: []float64{0.65, 0.35},
					Patterns: []Pattern{RandWS, Seq}, Params: []float64{0.4, 0}},
				{Len: 0.5, Weights: []float64{0.35, 0.65},
					Patterns: []Pattern{Seq, RandWS}, Params: []float64{0, 0.4}},
			},
			PeriodFrac: 0.4,
			APKI:       42, Accesses: 3_000_000,
			ManualPools: [][]int{{0}, {1}}, ManualLOC: 21,
		},
		{
			Name: "astar", Suite: "spec",
			Structs: []StructSpec{
				{Name: "graph", Bytes: 8 * mb, Pattern: Chase, WriteFrac: 0.05},
				{Name: "open", Bytes: 512 * kb, Pattern: Zipf, Param: 0.9, WriteFrac: 0.5},
				{Name: "closed", Bytes: 2 * mb, Pattern: Rand, WriteFrac: 0.3},
			},
			Phases: onePhase(0.5, 0.3, 0.2),
			APKI:   32, Accesses: 3_000_000,
		},
		{
			// omnetpp: many allocation sites (Fig 17 dendrogram).
			Name: "omnet", Suite: "spec",
			Structs: []StructSpec{
				{Name: "events", Bytes: 2 * mb, Pattern: Rand, WriteFrac: 0.4},
				{Name: "queues", Bytes: 512 * kb, Pattern: Zipf, Param: 1.0, WriteFrac: 0.5},
				{Name: "msgs", Bytes: 4 * mb, Pattern: Chase, WriteFrac: 0.3},
				{Name: "topo", Bytes: 1536 * kb, Pattern: Seq, WriteFrac: 0.05},
				{Name: "stats", Bytes: 256 * kb, Pattern: Zipf, Param: 0.8, WriteFrac: 0.6},
				{Name: "heap", Bytes: 3 * mb, Pattern: Rand, WriteFrac: 0.3},
			},
			Phases: []PhaseSpec{
				{Len: 0.5, Weights: []float64{0.25, 0.2, 0.25, 0.1, 0.1, 0.1}},
				{Len: 0.5, Weights: []float64{0.15, 0.25, 0.15, 0.05, 0.15, 0.25}},
			},
			PeriodFrac: 0.2,
			APKI:       30, Accesses: 3_000_000,
		},
		{
			Name: "sphinx3", Suite: "spec",
			Structs: []StructSpec{
				{Name: "am", Bytes: 8 * mb, Pattern: Zipf, Param: 0.7, WriteFrac: 0.02},
				{Name: "dict", Bytes: 1 * mb, Pattern: Zipf, Param: 1.0, WriteFrac: 0.02},
				{Name: "feat", Bytes: 2 * mb, Pattern: Seq, WriteFrac: 0.5},
			},
			Phases: onePhase(0.6, 0.2, 0.2),
			APKI:   35, Accesses: 3_000_000,
		},
		{
			Name: "xalanc", Suite: "spec",
			Structs: []StructSpec{
				{Name: "dom", Bytes: 6 * mb, Pattern: Chase, WriteFrac: 0.1},
				{Name: "strings", Bytes: 2 * mb, Pattern: Zipf, Param: 0.85, WriteFrac: 0.2},
				{Name: "templates", Bytes: 1 * mb, Pattern: Zipf, Param: 1.0, WriteFrac: 0.02},
				{Name: "out", Bytes: 4 * mb, Pattern: Seq, WriteFrac: 0.9},
			},
			Phases: []PhaseSpec{
				{Len: 0.6, Weights: []float64{0.4, 0.3, 0.2, 0.1}},
				{Len: 0.4, Weights: []float64{0.25, 0.2, 0.1, 0.45}},
			},
			PeriodFrac: 0.35,
			APKI:       32, Accesses: 3_000_000,
		},

		// ------------------------- PBBS-like -------------------------
		{
			Name: "BFS", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "vertices", Bytes: 2 * mb, Pattern: Rand, WriteFrac: 0.3},
				{Name: "edges", Bytes: 80 * mb, Pattern: Seq, WriteFrac: 0.0},
				{Name: "frontier", Bytes: 512 * kb, Pattern: WSLoop, Param: 0.6, WriteFrac: 0.5},
				{Name: "visited", Bytes: 256 * kb, Pattern: Rand, WriteFrac: 0.5},
			},
			Phases: onePhase(0.35, 0.35, 0.15, 0.15),
			APKI:   40, Accesses: 3_000_000,
			ManualPools: [][]int{{0}, {1}, {2}, {3}}, ManualLOC: 16,
		},
		{
			// mis: vertices cache well, edges are streaming (Fig 9).
			// Whirlpool bypasses edges and gives the cache to vertices.
			Name: "MIS", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "vertices", Bytes: 5 * mb, Pattern: Rand, WriteFrac: 0.3},
				{Name: "edges", Bytes: 128 * mb, Pattern: Seq, WriteFrac: 0.0},
				{Name: "flags", Bytes: 256 * kb, Pattern: Rand, WriteFrac: 0.6},
			},
			Phases: onePhase(0.42, 0.50, 0.08),
			APKI:   45, Accesses: 3_000_000,
			ManualPools: [][]int{{0}, {1}, {2}}, ManualLOC: 13,
		},
		{
			Name: "MST", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "unionfind", Bytes: 1 * mb, Pattern: Zipf, Param: 0.9, WriteFrac: 0.4},
				{Name: "tree", Bytes: 2 * mb, Pattern: Seq, WriteFrac: 0.8},
				{Name: "edges", Bytes: 96 * mb, Pattern: Seq, WriteFrac: 0.0},
			},
			Phases: onePhase(0.35, 0.15, 0.5),
			APKI:   42, Accesses: 3_000_000,
			ManualPools: [][]int{{0}, {1}, {2}}, ManualLOC: 11,
		},
		{
			// SA: pools that cache well; Whirlpool retains more of the
			// working set using *more* banks than Jigsaw (Fig 20).
			Name: "SA", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "suffixes", Bytes: 9 * mb, Pattern: Rand, WriteFrac: 0.2},
				{Name: "text", Bytes: 80 * mb, Pattern: Seq, WriteFrac: 0.0},
				{Name: "ranks", Bytes: 1 * mb, Pattern: Zipf, Param: 0.8, WriteFrac: 0.4},
			},
			Phases: onePhase(0.45, 0.35, 0.2),
			APKI:   40, Accesses: 3_000_000,
		},
		{
			Name: "ST", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "unionfind", Bytes: 1536 * kb, Pattern: Zipf, Param: 0.85, WriteFrac: 0.4},
				{Name: "tree", Bytes: 2 * mb, Pattern: Seq, WriteFrac: 0.8},
				{Name: "edges", Bytes: 96 * mb, Pattern: Seq, WriteFrac: 0.0},
			},
			Phases: onePhase(0.4, 0.15, 0.45),
			APKI:   40, Accesses: 3_000_000,
			ManualPools: [][]int{{0}, {1}, {2}}, ManualLOC: 13,
		},
		{
			// dt / delaunay: 6MB working set, three pools with equal
			// access split and 8x intensity spread (Fig 2).
			Name: "delaunay", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "points", Bytes: 512 * kb, Pattern: Rand, WriteFrac: 0.1},
				{Name: "vertices", Bytes: 1536 * kb, Pattern: Rand, WriteFrac: 0.3},
				{Name: "triangles", Bytes: 4 * mb, Pattern: Rand, WriteFrac: 0.3},
			},
			Phases: onePhase(0.34, 0.33, 0.33),
			APKI:   37, Accesses: 3_000_000,
			ManualPools: [][]int{{0}, {1}, {2}}, ManualLOC: 11,
		},
		{
			Name: "dict", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "table", Bytes: 6 * mb, Pattern: Rand, WriteFrac: 0.3},
				{Name: "keys", Bytes: 80 * mb, Pattern: Seq, WriteFrac: 0.0},
				{Name: "meta", Bytes: 256 * kb, Pattern: Zipf, Param: 1.0, WriteFrac: 0.4},
			},
			Phases: onePhase(0.5, 0.4, 0.1),
			APKI:   40, Accesses: 3_000_000,
		},
		{
			Name: "hull", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "points", Bytes: 8 * mb, Pattern: Seq, WriteFrac: 0.05},
				{Name: "hull", Bytes: 512 * kb, Pattern: Zipf, Param: 0.9, WriteFrac: 0.5},
			},
			Phases: onePhase(0.7, 0.3),
			APKI:   37, Accesses: 3_000_000,
			ManualPools: [][]int{{0}, {1}}, ManualLOC: 10,
		},
		{
			Name: "isort", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "input", Bytes: 8 * mb, Pattern: Seq, WriteFrac: 0.2},
				{Name: "buckets", Bytes: 2 * mb, Pattern: Rand, WriteFrac: 0.6},
			},
			Phases: onePhase(0.55, 0.45),
			APKI:   40, Accesses: 3_000_000,
		},
		{
			Name: "matching", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "vertices", Bytes: 2 * mb, Pattern: Rand, WriteFrac: 0.4},
				{Name: "edges", Bytes: 96 * mb, Pattern: Seq, WriteFrac: 0.0},
				{Name: "result", Bytes: 1 * mb, Pattern: Seq, WriteFrac: 0.8},
			},
			Phases: onePhase(0.4, 0.5, 0.1),
			APKI:   42, Accesses: 3_000_000,
			ManualPools: [][]int{{0}, {1}, {2}}, ManualLOC: 13,
		},
		{
			Name: "neighbors", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "points", Bytes: 4 * mb, Pattern: Rand, WriteFrac: 0.05},
				{Name: "tree", Bytes: 6 * mb, Pattern: Chase, WriteFrac: 0.05},
				{Name: "results", Bytes: 2 * mb, Pattern: Seq, WriteFrac: 0.9},
			},
			Phases: onePhase(0.35, 0.45, 0.2),
			APKI:   35, Accesses: 3_000_000,
		},
		{
			Name: "ray", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "triangles", Bytes: 6 * mb, Pattern: Zipf, Param: 0.6, WriteFrac: 0.0},
				{Name: "bvh", Bytes: 2 * mb, Pattern: Zipf, Param: 0.8, WriteFrac: 0.0},
				{Name: "rays", Bytes: 4 * mb, Pattern: Seq, WriteFrac: 0.5},
			},
			Phases: onePhase(0.4, 0.35, 0.25),
			APKI:   32, Accesses: 3_000_000,
		},
		{
			// refine: mostly vertices cache well while triangles+misc
			// stay small; at irregular intervals the pattern inverts
			// for ~100M cycles (Fig 11).
			Name: "refine", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "triangles", Bytes: 3 * mb, Pattern: WSLoop, Param: 0.25, WriteFrac: 0.3},
				{Name: "vertices", Bytes: 5 * mb, Pattern: Rand, WriteFrac: 0.2},
				{Name: "misc", Bytes: 4 * mb, Pattern: RandWS, Param: 0.15, WriteFrac: 0.4},
			},
			Phases: []PhaseSpec{
				{Len: 0.8, Weights: []float64{0.3, 0.5, 0.2}},
				{Len: 0.2, Weights: []float64{0.35, 0.3, 0.35},
					Patterns: []Pattern{WSLoop, Seq, RandWS},
					Params:   []float64{0.95, 0, 0.9}},
			},
			PeriodFrac:  0.25,
			PhaseJitter: 0.5,
			APKI:        37, Accesses: 3_000_000,
			ManualPools: [][]int{{1}, {0}, {2}}, ManualLOC: 8,
		},
		{
			Name: "remDups", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "input", Bytes: 112 * mb, Pattern: Seq, WriteFrac: 0.0},
				{Name: "table", Bytes: 4 * mb, Pattern: Rand, WriteFrac: 0.5},
			},
			Phases: onePhase(0.55, 0.45),
			APKI:   42, Accesses: 3_000_000,
		},
		{
			Name: "setCover", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "sets", Bytes: 96 * mb, Pattern: Seq, WriteFrac: 0.0},
				{Name: "elements", Bytes: 2 * mb, Pattern: Zipf, Param: 0.8, WriteFrac: 0.3},
				{Name: "cover", Bytes: 512 * kb, Pattern: Zipf, Param: 1.0, WriteFrac: 0.6},
			},
			Phases: []PhaseSpec{
				{Len: 0.5, Weights: []float64{0.55, 0.3, 0.15}},
				{Len: 0.5, Weights: []float64{0.3, 0.5, 0.2}},
			},
			PeriodFrac: 0.4,
			APKI:       37, Accesses: 3_000_000,
		},
		{
			Name: "sort", Suite: "pbbs",
			Structs: []StructSpec{
				{Name: "data", Bytes: 12 * mb, Pattern: Seq, WriteFrac: 0.4},
				{Name: "aux", Bytes: 12 * mb, Pattern: Seq, WriteFrac: 0.5},
			},
			Phases: onePhase(0.5, 0.5),
			APKI:   40, Accesses: 3_000_000,
		},
	}
}

// builtin is the suite, built once: ByName hands out deep copies of its
// specs, so no caller can change what the next one gets.
var builtin = Specs()

// ByName returns the spec with the given name. Runtime-registered specs
// (see Register) shadow built-ins of the same name.
func ByName(name string) (AppSpec, bool) {
	if s, ok := registered(name); ok {
		return s, true
	}
	for i := range builtin {
		if builtin[i].Name == name {
			return builtin[i].clone(), true
		}
	}
	return AppSpec{}, false
}

// clone returns a deep copy of s.
func (s AppSpec) clone() AppSpec {
	s.Structs = slices.Clone(s.Structs)
	s.Phases = slices.Clone(s.Phases)
	for i := range s.Phases {
		p := &s.Phases[i]
		p.Weights = slices.Clone(p.Weights)
		p.Patterns = slices.Clone(p.Patterns)
		p.Params = slices.Clone(p.Params)
	}
	s.ManualPools = slices.Clone(s.ManualPools)
	for i := range s.ManualPools {
		s.ManualPools[i] = slices.Clone(s.ManualPools[i])
	}
	return s
}

// BuiltinNames returns the built-in suite's app names in suite order,
// ignoring the runtime registry — the paper's figure runners use this so
// loaded spec files cannot silently change what a "paper figure" means.
func BuiltinNames() []string {
	out := make([]string, len(builtin))
	for i, s := range builtin {
		out[i] = s.Name
	}
	return out
}

// Names returns all app names: the built-in suite in order, then
// runtime-registered apps (minus any that shadow a built-in, which keep
// their built-in position).
func Names() []string {
	out := BuiltinNames()
	seen := make(map[string]bool, len(out))
	for _, n := range out {
		seen[n] = true
	}
	for _, n := range RegisteredNames() {
		if !seen[n] {
			out = append(out, n)
			seen[n] = true
		}
	}
	return out
}
