// Package graph provides the CSR graphs and generators the parallel
// workloads (Sec 3.4) run on: RMAT power-law graphs for the irregular
// apps (pagerank, connectedComponents, triangleCounting) and 2-D grids
// for the regular ones.
package graph

import (
	"sort"

	"whirlpool/internal/stats"
)

// CSR is a compressed-sparse-row graph.
type CSR struct {
	N    int     // vertices
	Xadj []int32 // N+1 offsets into Adj
	Adj  []int32 // neighbor lists
}

// Degree returns vertex v's out-degree.
func (g *CSR) Degree(v int32) int {
	return int(g.Xadj[v+1] - g.Xadj[v])
}

// Neighbors returns v's adjacency slice (shared; do not modify).
func (g *CSR) Neighbors(v int32) []int32 {
	return g.Adj[g.Xadj[v]:g.Xadj[v+1]]
}

// FromEdges builds a CSR from an edge list, symmetrizing and removing
// self-loops and duplicates.
func FromEdges(n int, edges [][2]int32) *CSR {
	type edge struct{ u, v int32 }
	es := make([]edge, 0, 2*len(edges))
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		es = append(es, edge{e[0], e[1]}, edge{e[1], e[0]})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].u != es[j].u {
			return es[i].u < es[j].u
		}
		return es[i].v < es[j].v
	})
	g := &CSR{N: n, Xadj: make([]int32, n+1)}
	var last edge = edge{-1, -1}
	for _, e := range es {
		if e == last {
			continue
		}
		last = e
		g.Adj = append(g.Adj, e.v)
		g.Xadj[e.u+1]++
	}
	for i := 0; i < n; i++ {
		g.Xadj[i+1] += g.Xadj[i]
	}
	return g
}

// RMAT generates a power-law graph with the classic recursive-matrix
// partition probabilities (a=0.57, b=c=0.19), the standard stand-in for
// the social/web graphs the paper's graph benchmarks run on.
func RMAT(scale int, edgeFactor int, seed uint64) *CSR {
	n := 1 << scale
	m := n * edgeFactor
	rng := stats.NewRng(seed)
	edges := make([][2]int32, 0, m)
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < 0.57: // a: top-left
			case r < 0.76: // b: top-right
				v |= 1 << bit
			case r < 0.95: // c: bottom-left
				u |= 1 << bit
			default: // d: bottom-right
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		edges = append(edges, [2]int32{int32(u), int32(v)})
	}
	return FromEdges(n, edges)
}

// Grid2D generates a w×h 4-neighbor mesh graph (regular apps partition
// these trivially).
func Grid2D(w, h int) *CSR {
	var edges [][2]int32
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, [2]int32{id(x, y), id(x+1, y)})
			}
			if y+1 < h {
				edges = append(edges, [2]int32{id(x, y), id(x, y+1)})
			}
		}
	}
	return FromEdges(w*h, edges)
}

// Uniform generates an Erdős–Rényi-style random graph with the given
// average degree.
func Uniform(n, avgDegree int, seed uint64) *CSR {
	rng := stats.NewRng(seed)
	m := n * avgDegree / 2
	edges := make([][2]int32, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
	}
	return FromEdges(n, edges)
}
