package workloads

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"whirlpool/internal/addr"
	"whirlpool/internal/mem"
	"whirlpool/internal/trace"
)

func TestSpecsWellFormed(t *testing.T) {
	specs := Specs()
	if len(specs) != 31 {
		t.Fatalf("suite has %d apps, want 31 (15 SPEC + 16 PBBS)", len(specs))
	}
	names := map[string]bool{}
	nSpec, nPbbs := 0, 0
	for _, s := range specs {
		if names[s.Name] {
			t.Fatalf("duplicate app %q", s.Name)
		}
		names[s.Name] = true
		switch s.Suite {
		case "spec":
			nSpec++
		case "pbbs":
			nPbbs++
		default:
			t.Fatalf("%s: bad suite %q", s.Name, s.Suite)
		}
		if len(s.Structs) == 0 || len(s.Phases) == 0 {
			t.Fatalf("%s: empty structs or phases", s.Name)
		}
		for _, ph := range s.Phases {
			if len(ph.Weights) != len(s.Structs) {
				t.Fatalf("%s: phase weights %d != structs %d", s.Name, len(ph.Weights), len(s.Structs))
			}
			if ph.Patterns != nil && len(ph.Patterns) != len(s.Structs) {
				t.Fatalf("%s: phase patterns length mismatch", s.Name)
			}
			var sum float64
			for _, w := range ph.Weights {
				if w < 0 {
					t.Fatalf("%s: negative weight", s.Name)
				}
				sum += w
			}
			if sum <= 0 {
				t.Fatalf("%s: zero weight phase", s.Name)
			}
		}
		for gi, g := range s.ManualPools {
			for _, si := range g {
				if si < 0 || si >= len(s.Structs) {
					t.Fatalf("%s: manual pool %d has bad index %d", s.Name, gi, si)
				}
			}
		}
		if s.APKI <= 0 || s.Accesses == 0 {
			t.Fatalf("%s: missing APKI or Accesses", s.Name)
		}
	}
	if nSpec != 15 || nPbbs != 16 {
		t.Fatalf("suite split %d/%d, want 15/16", nSpec, nPbbs)
	}
}

func TestTable2AppsPresent(t *testing.T) {
	// The manually-ported apps of Table 2 that are in the single-threaded
	// suite must carry manual pool groupings.
	manual := []string{"BFS", "delaunay", "matching", "refine", "MIS", "ST", "MST", "hull", "bzip2", "lbm", "mcf", "cactus"}
	for _, name := range manual {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("missing Table 2 app %q", name)
		}
		if len(s.ManualPools) == 0 {
			t.Fatalf("%s: no manual pools", name)
		}
		if s.ManualLOC == 0 {
			t.Fatalf("%s: no LOC entry", name)
		}
	}
}

func TestDelaunayMatchesPaper(t *testing.T) {
	// Fig 2: dt has a 6MB working set in three pools of 0.5/1.5/4 MB
	// with roughly even access split.
	s, _ := ByName("delaunay")
	if len(s.Structs) != 3 {
		t.Fatalf("dt pools = %d", len(s.Structs))
	}
	var total ByteSize
	for _, st := range s.Structs {
		total += st.Bytes
	}
	if total != 6*mb {
		t.Fatalf("dt working set = %d, want 6MB", total)
	}
	w := s.Phases[0].Weights
	if w[0] < 0.3 || w[1] < 0.3 || w[2] < 0.3 {
		t.Fatalf("dt access split not even: %v", w)
	}
}

func TestBuildAllocatesStructs(t *testing.T) {
	s, _ := ByName("mcf")
	w := Build(s, 1.0)
	if len(w.Structs) != 2 {
		t.Fatalf("structs = %d", len(w.Structs))
	}
	for i, st := range w.Structs {
		if st.Lines != addr.LinesFor(uint64(s.Structs[i].Bytes)) {
			t.Fatalf("struct %d lines mismatch", i)
		}
		if w.Space.CallpointOfLine(addr.LineOf(st.Base)) != st.CP {
			t.Fatalf("struct %d callpoint mismatch", i)
		}
	}
}

func TestStreamDeterministic(t *testing.T) {
	s, _ := ByName("delaunay")
	w := Build(s, 0.01)
	s1, s2 := w.Stream(1), w.Stream(1)
	for i := 0; i < 10000; i++ {
		a1, ok1 := s1.Next()
		a2, ok2 := s2.Next()
		if ok1 != ok2 || a1 != a2 {
			t.Fatalf("streams diverged at %d", i)
		}
		if !ok1 {
			break
		}
	}
}

func TestStreamLengthScales(t *testing.T) {
	s, _ := ByName("hull")
	w := Build(s, 0.001)
	want := uint64(float64(s.Accesses) * 0.001)
	var n uint64
	st := w.Stream(1)
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		n++
	}
	if n != want {
		t.Fatalf("stream length %d, want %d", n, want)
	}
}

func TestStreamStaysInBounds(t *testing.T) {
	for _, name := range []string{"delaunay", "MIS", "lbm", "refine", "omnet"} {
		s, _ := ByName(name)
		w := Build(s, 0.01)
		st := w.Stream(7)
		for {
			a, ok := st.Next()
			if !ok {
				break
			}
			found := false
			for _, sa := range w.Structs {
				base := addr.LineOf(sa.Base)
				if a.Line >= base && a.Line < base+addr.Line(sa.Lines) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: access to line %#x outside every structure", name, uint64(a.Line))
			}
		}
	}
}

func TestAccessSplitMatchesWeights(t *testing.T) {
	s, _ := ByName("delaunay")
	w := Build(s, 0.05)
	st := w.Stream(3)
	counts := make([]uint64, len(w.Structs))
	var total uint64
	for {
		a, ok := st.Next()
		if !ok {
			break
		}
		total++
		for i, sa := range w.Structs {
			base := addr.LineOf(sa.Base)
			if a.Line >= base && a.Line < base+addr.Line(sa.Lines) {
				counts[i]++
				break
			}
		}
	}
	for i, c := range counts {
		frac := float64(c) / float64(total)
		want := s.Phases[0].Weights[i]
		if frac < want-0.05 || frac > want+0.05 {
			t.Fatalf("struct %d got %.3f of accesses, want ~%.3f", i, frac, want)
		}
	}
}

func TestLbmPhasesAlternate(t *testing.T) {
	// Fig 6: lbm's two grids must swap dominance across phases.
	s, _ := ByName("lbm")
	w := Build(s, 0.2)
	st := w.Stream(1)
	// Count per-structure accesses in windows; dominance must flip.
	window := w.Accesses / 20
	counts := [2]uint64{}
	var seen uint64
	flips := 0
	lastDominant := -1
	g1 := addr.LineOf(w.Structs[0].Base)
	g1end := g1 + addr.Line(w.Structs[0].Lines)
	for {
		a, ok := st.Next()
		if !ok {
			break
		}
		if a.Line >= g1 && a.Line < g1end {
			counts[0]++
		} else {
			counts[1]++
		}
		seen++
		if seen%window == 0 {
			dom := 0
			if counts[1] > counts[0] {
				dom = 1
			}
			if lastDominant >= 0 && dom != lastDominant {
				flips++
			}
			lastDominant = dom
			counts = [2]uint64{}
		}
	}
	if flips < 2 {
		t.Fatalf("lbm grids flipped dominance %d times, want >= 2", flips)
	}
}

func TestCallpointPools(t *testing.T) {
	s, _ := ByName("delaunay")
	w := Build(s, 0.01)
	m := w.CallpointPools([][]int{{0, 1}, {2}})
	if m[w.Structs[0].CP] != m[w.Structs[1].CP] {
		t.Fatal("grouped structs must share a pool")
	}
	if m[w.Structs[0].CP] == m[w.Structs[2].CP] {
		t.Fatal("separate groups must get distinct pools")
	}
}

func TestManualGroupingFallback(t *testing.T) {
	s, _ := ByName("milc") // not manually ported
	w := Build(s, 0.01)
	g := w.ManualGrouping()
	if len(g) != 1 || len(g[0]) != len(w.Structs) {
		t.Fatalf("fallback grouping should be one pool with all structs: %v", g)
	}
}

func TestFilteredTraceIsMemoryIntensive(t *testing.T) {
	// Appendix A keeps apps with > 5 L2 MPKI; spot-check a few.
	for _, name := range []string{"MIS", "lbm", "mcf"} {
		s, _ := ByName(name)
		w := Build(s, 0.05)
		tr := trace.FilterPrivate(w.Stream(1))
		mpki := float64(tr.DemandAccesses()) / float64(tr.Instrs) * 1000
		if mpki < 5 {
			t.Fatalf("%s: L2 MPKI %.1f < 5", name, mpki)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("nosuch"); ok {
		t.Fatal("ByName should fail for unknown apps")
	}
	if _, ok := ByName("lbm"); !ok {
		t.Fatal("lbm missing")
	}
	if len(Names()) != 31 {
		t.Fatal("Names length mismatch")
	}
}

// TestByNameCopies: a spec from ByName is the suite's spec, and changing
// anything it holds leaves what the next ByName call returns untouched.
func TestByNameCopies(t *testing.T) {
	for _, want := range Specs() {
		s, ok := ByName(want.Name)
		if !ok || !reflect.DeepEqual(s, want) {
			t.Fatalf("ByName(%q) = %+v, %v; want %+v", want.Name, s, ok, want)
		}
		s.Structs[0].Bytes++
		for _, ph := range s.Phases {
			ph.Weights[0]++
			if ph.Patterns != nil {
				ph.Patterns[0]++
			}
			if ph.Params != nil {
				ph.Params[0]++
			}
		}
		for _, g := range s.ManualPools {
			g[0]++
		}
		if again, _ := ByName(want.Name); !reflect.DeepEqual(again, want) {
			t.Fatalf("%s: changing one ByName result changed the next: %+v", want.Name, again)
		}
	}
}

// TestByNameAllocs: ByName allocates the slices its copy holds and
// nothing more; it does not rebuild the suite.
func TestByNameAllocs(t *testing.T) {
	for _, s := range Specs() {
		n := 2 + len(s.ManualPools) // Structs, Phases, each pool
		if s.ManualPools != nil {
			n++
		}
		for _, ph := range s.Phases {
			n++
			if ph.Patterns != nil {
				n++
			}
			if ph.Params != nil {
				n++
			}
		}
		if got := testing.AllocsPerRun(20, func() { ByName(s.Name) }); got > float64(n) {
			t.Errorf("ByName(%q) makes %.0f allocations, want at most %d", s.Name, got, n)
		}
	}
}

// BenchmarkByName looks up the last app of the suite, the longest search.
func BenchmarkByName(b *testing.B) {
	names := BuiltinNames()
	name := names[len(names)-1]
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := ByName(name); !ok {
			b.Fatal(name, "missing")
		}
	}
}

var _ = mem.DefaultPool

// The snapshot helper must make registrations invisible to later tests:
// additions disappear, and shadowed built-ins reappear, on restore.
func TestSnapshotRegistryRestores(t *testing.T) {
	want := len(Names())
	restore := SnapshotRegistry()
	orig, _ := ByName("lbm")
	if err := Register(AppSpec{Name: "snap-only"}); err != nil {
		t.Fatal(err)
	}
	shadow := orig
	shadow.Accesses = orig.Accesses + 1
	if err := Register(shadow); err != nil {
		t.Fatal(err)
	}
	restore()
	if _, ok := ByName("snap-only"); ok {
		t.Fatal("registration survived restore")
	}
	if s, _ := ByName("lbm"); s.Accesses != orig.Accesses {
		t.Fatalf("shadowed builtin not restored: %d != %d", s.Accesses, orig.Accesses)
	}
	if len(Names()) != want {
		t.Fatalf("Names = %d after restore, want %d", len(Names()), want)
	}
}

// A structure of exactly three cache lines used to hang Stream: the
// Chase-stride search only tried odd strides in [3, lines), and three
// lines have none. Every seed must now stream, and Chase must still
// cycle through all three lines.
func TestStreamThreeLineStruct(t *testing.T) {
	spec := AppSpec{
		Name:     "three",
		Structs:  []StructSpec{{Name: "x", Bytes: 3 * addr.LineBytes, Pattern: Chase}},
		Phases:   onePhase(1),
		APKI:     35,
		Accesses: 30,
	}
	done := make(chan error, 1)
	go func() {
		for seed := uint64(0); seed < 16; seed++ {
			st := Build(spec, 1).Stream(seed)
			seen := map[addr.Line]bool{}
			for {
				a, ok := st.Next()
				if !ok {
					break
				}
				seen[a.Line] = true
			}
			if len(seen) != 3 {
				done <- fmt.Errorf("seed %d: chase touched %d of 3 lines", seed, len(seen))
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stream did not return for a three-line structure")
	}
}
