// Package paws implements partitioned work-stealing (Sec 3.4) and the
// task-parallel workloads of Fig 13.
//
// In conventional work-stealing, tasks land on arbitrary cores and every
// core ends up touching most of the data, so neither private caches nor
// NUCA placement can exploit locality. PaWS partitions the input data
// across cores (via internal/partition for irregular graphs), enqueues
// each task on the core owning its data, and steals from nearby cores
// first. Whirlpool then maps each partition to its own pool, so every
// pool's VC is placed next to the cores that use it.
package paws

import (
	"whirlpool/internal/addr"
	"whirlpool/internal/graph"
	"whirlpool/internal/mem"
	"whirlpool/internal/noc"
	"whirlpool/internal/partition"
	"whirlpool/internal/stats"
	"whirlpool/internal/trace"
)

// Spec describes one parallel workload.
type Spec struct {
	Name string
	// Regular apps set the per-partition footprints directly; graph apps
	// derive them from the partitioned input graph.
	VertexBytesPerPart uint64
	EdgeBytesPerPart   uint64
	// Graph inputs (UseGraph): RMAT scale/edge-factor. Remote access
	// weights follow the real partition adjacency.
	UseGraph   bool
	GraphScale int
	EdgeFactor int

	Rounds       int
	TasksPerPart int
	UnitsPerTask int
	// TaskSkew > 0 makes task sizes uneven (load imbalance), which is
	// what forces stealing.
	TaskSkew float64

	// Access mix within a task.
	LocalVertexFrac float64 // random over the home partition's vertices
	LocalEdgeFrac   float64 // sequential over the home partition's edges
	// Remainder goes to remote partitions' vertices.
	WriteFrac float64

	// APKI is the line-touch rate per kilo-instruction.
	APKI float64
}

// Specs returns the six parallel apps of Fig 13.
func Specs() []Spec {
	return []Spec{
		{
			Name:               "mergesort",
			VertexBytesPerPart: 1 * addr.MB, // the array chunk
			EdgeBytesPerPart:   1 * addr.MB, // merge buffers
			Rounds:             4, TasksPerPart: 6, UnitsPerTask: 2500,
			TaskSkew:        0.2,
			LocalVertexFrac: 0.55, LocalEdgeFrac: 0.35, WriteFrac: 0.45,
			APKI: 40,
		},
		{
			Name:               "fft",
			VertexBytesPerPart: 1536 * addr.KB,
			EdgeBytesPerPart:   512 * addr.KB, // twiddle tables
			Rounds:             5, TasksPerPart: 5, UnitsPerTask: 2200,
			TaskSkew:        0.15,
			LocalVertexFrac: 0.60, LocalEdgeFrac: 0.25, WriteFrac: 0.5,
			APKI: 42,
		},
		{
			Name:               "delaunay",
			VertexBytesPerPart: 1 * addr.MB,    // points+vertices
			EdgeBytesPerPart:   1536 * addr.KB, // triangles
			Rounds:             3, TasksPerPart: 8, UnitsPerTask: 2200,
			TaskSkew:        0.5,
			LocalVertexFrac: 0.55, LocalEdgeFrac: 0.35, WriteFrac: 0.3,
			APKI: 37,
		},
		{
			Name:     "pagerank",
			UseGraph: true, GraphScale: 15, EdgeFactor: 12,
			Rounds: 4, TasksPerPart: 6, UnitsPerTask: 2200,
			TaskSkew:        0.6,
			LocalVertexFrac: 0.45, LocalEdgeFrac: 0.35, WriteFrac: 0.3,
			APKI: 45,
		},
		{
			Name:     "connectedComponents",
			UseGraph: true, GraphScale: 15, EdgeFactor: 10,
			Rounds: 6, TasksPerPart: 5, UnitsPerTask: 1800,
			TaskSkew:        0.8,
			LocalVertexFrac: 0.50, LocalEdgeFrac: 0.25, WriteFrac: 0.4,
			APKI: 45,
		},
		{
			Name:     "triangleCounting",
			UseGraph: true, GraphScale: 14, EdgeFactor: 16,
			Rounds: 3, TasksPerPart: 6, UnitsPerTask: 2600,
			TaskSkew:        0.7,
			LocalVertexFrac: 0.35, LocalEdgeFrac: 0.50, WriteFrac: 0.05,
			APKI: 42,
		},
	}
}

// SpecByName looks up a parallel app.
func SpecByName(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Task is one unit of schedulable work.
type Task struct {
	Part  int32
	Round int16
	Units int32
}

// App is a built parallel workload: per-partition pools and data, a task
// list, and remote-access weights.
type App struct {
	Spec   Spec
	NParts int
	Space  *mem.Space

	Pools       []mem.PoolID // per partition
	vertexBase  []addr.Line
	vertexLines []uint64
	edgeBase    []addr.Line
	edgeLines   []uint64

	Tasks []Task
	// remoteW[p][q]: weight of remote accesses from partition p to q
	// (cut-edge counts for graph apps; uniform neighbors otherwise).
	remoteW [][]float64
	// RemoteFrac is the realized remote access fraction (from the cut).
	RemoteFrac float64
	// EdgeCut reports the partitioner's cut (graph apps).
	EdgeCut int
}

// Build allocates the app's data over nParts partitions, one pool each.
func Build(spec Spec, nParts int, seed uint64) *App {
	a := &App{Spec: spec, NParts: nParts, Space: mem.NewSpace()}
	vb := make([]uint64, nParts)
	eb := make([]uint64, nParts)
	a.remoteW = make([][]float64, nParts)
	if spec.UseGraph {
		g := graph.RMAT(spec.GraphScale, spec.EdgeFactor, seed)
		parts := partition.Partition(g, nParts, seed)
		a.EdgeCut = partition.EdgeCut(g, parts)
		sizes := partition.Sizes(parts, nParts)
		// Per-partition footprints: 64B per vertex, 16B per edge slot.
		edgesPer := make([]int, nParts)
		for p := 0; p < nParts; p++ {
			a.remoteW[p] = make([]float64, nParts)
		}
		for v := int32(0); v < int32(g.N); v++ {
			pv := parts[v]
			edgesPer[pv] += g.Degree(v)
			for _, u := range g.Neighbors(v) {
				if parts[u] != pv {
					a.remoteW[pv][parts[u]]++
				}
			}
		}
		totalCross, totalEdges := 0.0, 0.0
		for p := 0; p < nParts; p++ {
			vb[p] = uint64(sizes[p]) * 64
			eb[p] = uint64(edgesPer[p]) * 16
			for q := 0; q < nParts; q++ {
				totalCross += a.remoteW[p][q]
			}
			totalEdges += float64(edgesPer[p])
		}
		if totalEdges > 0 {
			a.RemoteFrac = totalCross / totalEdges
		}
	} else {
		for p := 0; p < nParts; p++ {
			vb[p] = spec.VertexBytesPerPart
			eb[p] = spec.EdgeBytesPerPart
			a.remoteW[p] = make([]float64, nParts)
			// Regular apps exchange with logical neighbors (merge trees,
			// butterfly stages).
			a.remoteW[p][(p+1)%nParts] = 1
			a.remoteW[p][(p+nParts-1)%nParts] = 1
			if x := p ^ 1; x < nParts {
				a.remoteW[p][x] += 2
			}
		}
		a.RemoteFrac = 0.08
	}
	for p := 0; p < nParts; p++ {
		pool := a.Space.PoolCreate()
		a.Pools = append(a.Pools, pool)
		vbase := a.Space.Malloc(vb[p], pool, mem.NoCallpoint)
		ebase := a.Space.Malloc(eb[p], pool, mem.NoCallpoint)
		a.vertexBase = append(a.vertexBase, addr.LineOf(vbase))
		a.vertexLines = append(a.vertexLines, addr.LinesFor(vb[p]))
		a.edgeBase = append(a.edgeBase, addr.LineOf(ebase))
		a.edgeLines = append(a.edgeLines, addr.LinesFor(eb[p]))
	}
	// Tasks with skewed sizes for load imbalance.
	rng := stats.NewRng(seed ^ 0x9a75)
	for r := 0; r < spec.Rounds; r++ {
		for p := 0; p < nParts; p++ {
			for t := 0; t < spec.TasksPerPart; t++ {
				units := spec.UnitsPerTask
				if spec.TaskSkew > 0 {
					f := 1 + spec.TaskSkew*(2*rng.Float64()-1)*2
					if f < 0.2 {
						f = 0.2
					}
					units = int(float64(units) * f)
				}
				a.Tasks = append(a.Tasks, Task{Part: int32(p), Round: int16(r), Units: int32(units)})
			}
		}
	}
	return a
}

// PoolOfLine maps a line to its partition pool (the page-table lookup
// Whirlpool's classifier performs).
func (a *App) PoolOfLine(l addr.Line) mem.PoolID {
	return a.Space.PoolOfLine(l)
}

// Policy selects the scheduling discipline.
type Policy int

// Scheduling policies.
const (
	// Conventional work-stealing: round-robin spawn, random-victim steals.
	Conventional Policy = iota
	// PaWS: partition-affine enqueue, nearest-neighbor steals.
	PaWS
)

// String names the policy.
func (p Policy) String() string {
	if p == PaWS {
		return "PaWS"
	}
	return "WS"
}

// ScheduleResult carries the generated per-core access streams plus
// affinity accounting.
type ScheduleResult struct {
	Streams [][]trace.Access
	// HomeAccesses / TotalAccesses measure how often a partition's data
	// was touched from its owner core.
	HomeAccesses  uint64
	TotalAccesses uint64
	Steals        int
}

// Run schedules the app's tasks on nCores cores under the given policy
// and emits each core's access stream. Cores advance task-by-task in a
// round-robin interleaving; rounds are barriers.
func Run(a *App, nCores int, policy Policy, mesh *noc.Mesh, seed uint64) *ScheduleResult {
	if a.NParts != nCores {
		panic("paws: partitions must match cores")
	}
	res := &ScheduleResult{Streams: make([][]trace.Access, nCores)}
	rng := stats.NewRng(seed)
	gap := uint32(1000.0 / a.Spec.APKI)
	if gap == 0 {
		gap = 1
	}
	// Per-partition sequential positions persist across tasks (edges are
	// scanned in chunks).
	edgePos := make([]uint64, a.NParts)

	// Steal order per core: nearest cores first (PaWS), by mesh distance.
	stealOrder := make([][]int, nCores)
	for c := 0; c < nCores; c++ {
		order := make([]int, 0, nCores-1)
		for d := 1; d < nCores; d++ {
			order = append(order, (c+d)%nCores)
		}
		if policy == PaWS && mesh != nil {
			// Sort by physical core distance.
			cc := mesh.Cores[c]
			for i := 1; i < len(order); i++ {
				for j := i; j > 0; j-- {
					a1 := noc.Hops(cc, mesh.Cores[order[j-1]])
					a2 := noc.Hops(cc, mesh.Cores[order[j]])
					if a2 < a1 {
						order[j-1], order[j] = order[j], order[j-1]
					} else {
						break
					}
				}
			}
		}
		stealOrder[c] = order
	}

	maxRound := int16(0)
	for _, t := range a.Tasks {
		if t.Round > maxRound {
			maxRound = t.Round
		}
	}
	for round := int16(0); round <= maxRound; round++ {
		queues := make([][]Task, nCores)
		for i, t := range a.Tasks {
			if t.Round != round {
				continue
			}
			var home int
			if policy == PaWS {
				home = int(t.Part)
			} else {
				home = i % nCores
			}
			queues[home] = append(queues[home], t)
		}
		remaining := 0
		for _, q := range queues {
			remaining += len(q)
		}
		// Time-aware scheduling: the core with the least executed work
		// goes next, so cores that drew small tasks drain early and
		// steal from loaded ones — how imbalance drives stealing.
		times := make([]uint64, nCores)
		for remaining > 0 {
			c := 0
			for i := 1; i < nCores; i++ {
				if times[i] < times[c] {
					c = i
				}
			}
			var task Task
			if len(queues[c]) > 0 {
				task = queues[c][0]
				queues[c] = queues[c][1:]
			} else {
				victim := -1
				if policy == PaWS {
					for _, v := range stealOrder[c] {
						if len(queues[v]) > 0 {
							victim = v
							break
						}
					}
				} else {
					// Random victim probing, with an ordered fallback.
					for tries := 0; tries < nCores; tries++ {
						v := rng.Intn(nCores)
						if v != c && len(queues[v]) > 0 {
							victim = v
							break
						}
					}
					if victim < 0 {
						for _, v := range stealOrder[c] {
							if len(queues[v]) > 0 {
								victim = v
								break
							}
						}
					}
				}
				if victim < 0 {
					// Nothing left to steal this round; idle to the max.
					var max uint64
					for _, tm := range times {
						if tm > max {
							max = tm
						}
					}
					times[c] = max + 1
					continue
				}
				n := len(queues[victim])
				task = queues[victim][n-1]
				queues[victim] = queues[victim][:n-1]
				res.Steals++
			}
			remaining--
			times[c] += uint64(task.Units)
			a.execTask(task, c, gap, rng, &edgePos[task.Part], res)
		}
	}
	return res
}

// execTask emits one task's accesses into core c's stream.
func (a *App) execTask(t Task, c int, gap uint32, rng *stats.Rng, edgePos *uint64, res *ScheduleResult) {
	spec := &a.Spec
	p := t.Part
	w := a.remoteW[p]
	var wSum float64
	for _, x := range w {
		wSum += x
	}
	remoteFrac := a.RemoteFrac
	for i := int32(0); i < t.Units; i++ {
		r := rng.Float64()
		var line addr.Line
		switch {
		case r < spec.LocalVertexFrac:
			line = a.vertexBase[p] + addr.Line(rng.Uint64n(a.vertexLines[p]))
		case r < spec.LocalVertexFrac+spec.LocalEdgeFrac:
			*edgePos = (*edgePos + 1) % a.edgeLines[p]
			line = a.edgeBase[p] + addr.Line(*edgePos)
		default:
			// Remote vertex access, weighted by partition adjacency.
			q := p
			if wSum > 0 && rng.Float64() < remoteFrac/(1-spec.LocalVertexFrac-spec.LocalEdgeFrac)*3 {
				x := rng.Float64() * wSum
				for qi, wq := range w {
					x -= wq
					if x <= 0 {
						q = int32(qi)
						break
					}
				}
			}
			line = a.vertexBase[q] + addr.Line(rng.Uint64n(a.vertexLines[q]))
		}
		write := rng.Float64() < spec.WriteFrac
		res.Streams[c] = append(res.Streams[c], trace.Access{Line: line, Write: write, Gap: gap})
		res.TotalAccesses++
		if int32(c) == p {
			res.HomeAccesses++
		}
	}
}
