package graph

import (
	"testing"
	"testing/quick"
)

func TestFromEdgesSymmetric(t *testing.T) {
	g := FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	for v := int32(0); v < 4; v++ {
		for _, u := range g.Neighbors(v) {
			found := false
			for _, w := range g.Neighbors(u) {
				if w == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d not symmetric", v, u)
			}
		}
	}
}

func TestFromEdgesDedupAndNoSelfLoops(t *testing.T) {
	g := FromEdges(3, [][2]int32{{0, 1}, {1, 0}, {0, 1}, {2, 2}})
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees: %d %d, want 1 1", g.Degree(0), g.Degree(1))
	}
	if g.Degree(2) != 0 {
		t.Fatal("self loop survived")
	}
}

func TestRMATProperties(t *testing.T) {
	g := RMAT(10, 8, 42)
	if g.N != 1024 {
		t.Fatalf("N = %d", g.N)
	}
	if len(g.Adj) == 0 {
		t.Fatal("no edges")
	}
	// Power-law-ish: max degree much higher than average.
	maxDeg, sum := 0, 0
	for v := int32(0); v < int32(g.N); v++ {
		d := g.Degree(v)
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sum) / float64(g.N)
	if float64(maxDeg) < 5*avg {
		t.Fatalf("not skewed: max %d avg %.1f", maxDeg, avg)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(8, 4, 7)
	b := RMAT(8, 4, 7)
	if len(a.Adj) != len(b.Adj) {
		t.Fatal("RMAT not deterministic")
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			t.Fatal("RMAT adjacency differs")
		}
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(4, 3)
	if g.N != 12 {
		t.Fatalf("N = %d", g.N)
	}
	// Interior vertex has 4 neighbors; corner has 2.
	if g.Degree(5) != 4 {
		t.Fatalf("interior degree = %d", g.Degree(5))
	}
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree = %d", g.Degree(0))
	}
}

func TestUniform(t *testing.T) {
	g := Uniform(1000, 8, 3)
	avg := float64(len(g.Adj)) / float64(g.N)
	if avg < 5 || avg > 9 {
		t.Fatalf("avg degree %.1f, want ~8", avg)
	}
}

func TestQuickXadjMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		g := Uniform(200, 4, seed)
		for i := 0; i < g.N; i++ {
			if g.Xadj[i] > g.Xadj[i+1] {
				return false
			}
		}
		return int(g.Xadj[g.N]) == len(g.Adj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
