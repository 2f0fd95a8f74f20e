package experiments

import (
	"fmt"
	"strings"

	"whirlpool/internal/addr"
	"whirlpool/internal/energy"
	"whirlpool/internal/jigsaw"
	"whirlpool/internal/llc"
	"whirlpool/internal/mrc"
	"whirlpool/internal/noc"
	"whirlpool/internal/schemes"
	"whirlpool/internal/sim"
	"whirlpool/internal/trace"
)

// Fig02 reproduces dt's working-set and access-pattern breakdown: pool
// sizes and per-pool LLC access intensity (Fig 2).
func (h *Harness) Fig02() *Table {
	at := h.App("delaunay")
	r := must(h.RunSingle("delaunay", schemes.KindWhirlpool, RunOptions{PerPool: true}))
	t := &Table{
		Title: "Fig 2: dt working set and access breakdown",
		Cols:  []string{"pool", "MB", "LLC APKI", "APKI/MB"},
	}
	instrK := float64(r.Instrs) / 1000
	for i, s := range at.W.Structs {
		apki := float64(r.PoolAccesses[i+1]) / instrK
		mb := float64(s.Spec.Bytes) / float64(addr.MB)
		t.AddRow(s.Spec.Name, F(mb, 2), F(apki, 2), F(apki/mb, 2))
	}
	t.AddNote("paper: 0.5/1.5/4 MB pools, ~even access split, 8x intensity spread")
	return t
}

// Fig05 renders the dt placement maps for S-NUCA, Jigsaw, and Whirlpool
// (Figs 3-5): which VC owns each bank of the 5x5 mesh.
func (h *Harness) Fig05() string {
	var b strings.Builder
	b.WriteString("== Figs 3-5: dt data placement across the 25-bank mesh ==\n")
	b.WriteString("(S-NUCA hashes lines over all banks; shown as '*' everywhere)\n\n")

	renderMap := func(title string, owners []int, labels []string) {
		fmt.Fprintf(&b, "%s\n", title)
		k := 5
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				o := owners[y*k+x]
				cell := "."
				if o >= 0 && o < len(labels) {
					cell = labels[o]
				}
				fmt.Fprintf(&b, " %s", cell)
			}
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	// S-NUCA: every bank holds a hash slice of everything.
	snuca := make([]int, 25)
	for i := range snuca {
		snuca[i] = 0
	}
	renderMap("S-NUCA (Fig 3): data spread over every bank", snuca, []string{"*"})

	run := func(whirl bool) *jigsaw.Dnuca {
		at := h.App("delaunay")
		var d *jigsaw.Dnuca
		classify := llc.ThreadPrivate
		name := "Jigsaw"
		if whirl {
			classify = poolClassifier(at.W, at.W.ManualGrouping(), 0)
			name = "Whirlpool"
		}
		must(h.RunSingle("delaunay", schemes.KindWhirlpool, RunOptions{
			LLCOverride: func(chip *noc.Chip, m *energy.Meter) llc.LLC {
				d = jigsaw.New(jigsaw.Config{
					Chip: chip, Meter: m,
					Classify:       classify,
					SchemeName:     name,
					BypassEnabled:  true,
					ReconfigCycles: h.ReconfigCycles,
				})
				return d
			},
		}))
		return d
	}
	jig := run(false)
	renderMap("Jigsaw (Fig 4): one VC packed near the core ('J'; '.' unused)",
		jig.BankOwnerMap(), []string{"J"})

	whirl := run(true)
	at := h.App("delaunay")
	labels := make([]string, len(whirl.VCs()))
	legend := make([]string, 0, len(labels))
	for i, v := range whirl.VCs() {
		name := "?"
		if int(v.Key.Pool) >= 1 && int(v.Key.Pool) <= len(at.W.Structs) {
			name = at.W.Structs[v.Key.Pool-1].Spec.Name
		}
		labels[i] = fmt.Sprintf("%d", v.Key.Pool)
		legend = append(legend, fmt.Sprintf("%s=%s", labels[i], name))
	}
	renderMap("Whirlpool (Fig 5): per-pool VCs, intense pools closest ("+
		strings.Join(legend, ", ")+"; '.' unused)", whirl.BankOwnerMap(), labels)
	return b.String()
}

// Fig06 reproduces lbm's alternating per-pool access pattern: per-pool
// APKI over time windows (Fig 6).
func (h *Harness) Fig06() *Table {
	at := h.App("lbm")
	t := &Table{
		Title: "Fig 6: lbm per-pool LLC APKI over time (alternating phases)",
		Cols:  []string{"window", "grid1 APKI", "grid2 APKI", "dominant"},
	}
	const windows = 12
	counts := make([][2]uint64, windows)
	instrs := make([]uint64, windows)
	total := at.Tr.Stats().Instrs
	var instrSoFar uint64
	g1 := addr.LineOf(at.W.Structs[0].Base)
	g1end := g1 + addr.Line(at.W.Structs[0].Lines)
	must(h.RunSingle("lbm", schemes.KindWhirlpool, RunOptions{
		NoWarmup: true,
		OnAccess: func(now uint64, core int, a trace.LLCAccess, lat uint64, out llc.Outcome) {
			instrSoFar += uint64(a.Gap)
			w := int(instrSoFar * windows / (total + 1))
			if w >= windows {
				w = windows - 1
			}
			instrs[w] += uint64(a.Gap)
			if a.Line >= g1 && a.Line < g1end {
				counts[w][0]++
			} else {
				counts[w][1]++
			}
		},
	}))
	flips := 0
	last := -1
	for w := 0; w < windows; w++ {
		ik := float64(instrs[w]) / 1000
		if ik == 0 {
			continue
		}
		a1 := float64(counts[w][0]) / ik
		a2 := float64(counts[w][1]) / ik
		dom := "grid1"
		di := 0
		if a2 > a1 {
			dom, di = "grid2", 1
		}
		if last >= 0 && di != last {
			flips++
		}
		last = di
		t.AddRow(fmt.Sprintf("%d", w), F(a1, 1), F(a2, 1), dom)
	}
	t.AddNote("dominance flips %d times: the grids swap roles each timestep", flips)
	return t
}

// curveTable renders per-pool miss-rate curves (MPKI vs LLC MB) and the
// derived latency curves for an app: Fig 8 (dt) and Fig 9 (mis).
func (h *Harness) curveTable(app string, figure string) *Table {
	at := h.App(app)
	chip := noc.FourCoreChip()
	// Profile each pool's LLC-level stream exactly.
	profs := make([]*poolCurve, len(at.W.Structs))
	for i := range profs {
		profs[i] = newPoolCurve(chip)
	}
	for cur := at.Tr.NewCursor(); ; {
		a, ok := cur.Next()
		if !ok {
			break
		}
		if a.Writeback {
			continue
		}
		cp := int(at.W.Space.CallpointOfLine(a.Line)) - 1
		if cp >= 0 && cp < len(profs) {
			profs[cp].add(a.Line)
		}
	}
	t := &Table{
		Title: figure,
		Cols:  []string{"LLC MB"},
	}
	for _, s := range at.W.Structs {
		t.Cols = append(t.Cols, s.Spec.Name+" MPKI")
	}
	instrK := float64(at.Tr.Stats().Instrs) / 1000
	sizes := []float64{0, 1, 2, 3, 4, 5, 6, 8, 10, 12}
	for _, mb := range sizes {
		row := []string{F(mb, 0)}
		for i := range profs {
			misses := profs[i].at(uint64(mb * float64(addr.MB) / addr.LineBytes))
			row = append(row, F(misses/instrK, 2))
		}
		t.AddRow(row...)
	}
	return t
}

// poolCurve wraps an exact stack-distance profile over the LLC domain.
type poolCurve struct {
	prof *mrc.Profiler
}

func newPoolCurve(chip *noc.Chip) *poolCurve {
	gran := chip.BankLines() / 4
	buckets := int(chip.TotalLines() / gran)
	return &poolCurve{prof: mrc.NewProfiler(gran, buckets, 0)}
}

func (p *poolCurve) add(l addr.Line) { p.prof.Access(l) }

func (p *poolCurve) at(lines uint64) float64 {
	return p.prof.Curve().At(lines)
}

// Fig08 reproduces dt's per-pool miss-rate curves (Fig 8a).
func (h *Harness) Fig08() *Table {
	t := h.curveTable("delaunay", "Fig 8a: dt per-pool LLC miss-rate curves")
	t.AddNote("each pool's MPKI falls to ~0 once its footprint fits (0.5/1.5/4 MB)")
	return t
}

// Fig09 reproduces mis's curves (Fig 9a): vertices cache well, edges
// stream at every size — the bypass case.
func (h *Harness) Fig09() *Table {
	t := h.curveTable("MIS", "Fig 9a: mis per-pool LLC miss-rate curves")
	t.AddNote("edges are flat (streaming): Whirlpool bypasses them and gives the cache to vertices")
	return t
}

// SchemeBreakdown reproduces the per-app six-scheme breakdown figures:
// Fig 10 (mis), Fig 19 (cactus), Fig 20 (SA). Values are normalized to
// Whirlpool = 1.0 for time/energy; accesses are absolute APKI.
func (h *Harness) SchemeBreakdown(app, figure string) *Table {
	t := &Table{
		Title: figure,
		Cols: []string{"scheme", "exec time", "DME total", "net", "bank", "mem",
			"LLC APKI", "hit%", "miss%", "byp%"},
	}
	results := make(map[schemes.Kind]*sim.Result)
	at := h.App(app)
	for _, k := range schemes.PaperKinds() {
		opt := RunOptions{}
		if k == schemes.KindWhirlpool && len(at.W.Spec.ManualPools) == 0 {
			// Apps the paper never ported manually (e.g., SA) get their
			// pools from WhirlTool, as in Sec 4.5.
			opt.Grouping = h.WhirlToolGrouping(app, 3, true)
		}
		results[k] = must(h.RunSingle(app, k, opt))
	}
	base := results[schemes.KindWhirlpool]
	for _, k := range schemes.PaperKinds() {
		r := results[k]
		d := float64(r.Demand)
		t.AddRow(k.String(),
			F(float64(r.Cycles)/float64(base.Cycles), 3),
			F(r.Energy.Total()/base.Energy.Total(), 3),
			F(r.Energy.NetworkPJ/base.Energy.Total(), 3),
			F(r.Energy.BankPJ/base.Energy.Total(), 3),
			F(r.Energy.MemoryPJ/base.Energy.Total(), 3),
			F(r.TotalAccessesAPKI(), 1),
			F(100*float64(r.Hits)/d, 1),
			F(100*float64(r.Misses)/d, 1),
			F(100*float64(r.Bypasses)/d, 1),
		)
	}
	t.AddNote("time and energy normalized to Whirlpool = 1.0")
	return t
}

// Fig10 is mis's breakdown.
func (h *Harness) Fig10() *Table {
	return h.SchemeBreakdown("MIS", "Fig 10: mis performance/energy/access breakdown")
}

// Fig19 is cactus's breakdown.
func (h *Harness) Fig19() *Table {
	return h.SchemeBreakdown("cactus", "Fig 19: cactus performance/energy/access breakdown")
}

// Fig20 is SA's breakdown.
func (h *Harness) Fig20() *Table {
	return h.SchemeBreakdown("SA", "Fig 20: SA performance/energy/access breakdown")
}

// Fig11 samples refine's per-pool allocations over time (Fig 11a),
// showing the runtime adapting to irregular phase changes.
func (h *Harness) Fig11() *Table {
	at := h.App("refine")
	var d *jigsaw.Dnuca
	t := &Table{
		Title: "Fig 11a: refine cache allocations over time (MB, avg hops)",
	}
	t.Cols = []string{"Mcycles"}
	for _, s := range at.W.Structs {
		t.Cols = append(t.Cols, s.Spec.Name)
	}
	var lastSample uint64
	must(h.RunSingle("refine", schemes.KindWhirlpool, RunOptions{
		NoWarmup: true,
		LLCOverride: func(chip *noc.Chip, m *energy.Meter) llc.LLC {
			d = jigsaw.New(jigsaw.Config{
				Chip: chip, Meter: m,
				Classify:       poolClassifier(at.W, [][]int{{0}, {1}, {2}}, 0),
				SchemeName:     "Whirlpool",
				BypassEnabled:  true,
				ReconfigCycles: h.ReconfigCycles,
			})
			return d
		},
		OnTick: func(now uint64) {
			if now-lastSample < h.ReconfigCycles {
				return
			}
			lastSample = now
			allocs := d.Allocations()
			dist := d.AvgAllocDistance()
			row := []string{F(float64(now)/1e6, 0)}
			byPool := make(map[int]string)
			for i, v := range d.VCs() {
				mb := float64(allocs[i]) * addr.LineBytes / float64(addr.MB)
				byPool[int(v.Key.Pool)] = fmt.Sprintf("%.1fMB@%.1f", mb, dist[i])
			}
			for p := 1; p <= len(at.W.Structs); p++ {
				cell, ok := byPool[p]
				if !ok {
					cell = "-"
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		},
	}))
	t.AddNote("allocations and placement distance shift during refine's irregular phases")
	return t
}

// Fig13 runs the six parallel apps under the four variants (Fig 13):
// execution time and data-movement energy normalized to S-NUCA.
func (h *Harness) Fig13(apps []string) *Table {
	t := &Table{
		Title: "Fig 13: parallel apps on 16 cores (norm. to S-NUCA)",
		Cols:  []string{"app", "variant", "exec time", "DME", "LLC APKI"},
	}
	for _, app := range apps {
		var base *sim.Result
		for _, v := range ParallelVariants() {
			r := must(h.RunParallel(app, v))
			if v == VariantSNUCA {
				base = r
			}
			t.AddRow(app, v.String(),
				F(float64(r.Cycles)/float64(base.Cycles), 3),
				F(r.Energy.Total()/base.Energy.Total(), 3),
				F(r.TotalAccessesAPKI(), 1))
		}
	}
	return t
}
