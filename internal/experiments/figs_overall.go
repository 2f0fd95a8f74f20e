package experiments

import (
	"fmt"

	"whirlpool/internal/mem"
	"whirlpool/internal/noc"
	"whirlpool/internal/schemes"
	"whirlpool/internal/sim"
	"whirlpool/internal/stats"
	"whirlpool/internal/workloads"
)

// Fig16 sweeps WhirlTool's pool count (2/3/4) over the given apps and
// reports speedup over Jigsaw, with the manual classification as the
// reference dot (Fig 16).
func (h *Harness) Fig16(apps []string) *Table {
	t := &Table{
		Title: "Fig 16: WhirlTool speedup over Jigsaw (2/3/4 pools) vs manual",
		Cols:  []string{"app", "2 pools", "3 pools", "4 pools", "manual", "manual-pools"},
	}
	for _, app := range apps {
		jig := must(h.RunSingle(app, schemes.KindJigsaw, RunOptions{}))
		row := []string{app}
		for k := 2; k <= 4; k++ {
			g := h.WhirlToolGrouping(app, k, true)
			r := must(h.RunSingle(app, schemes.KindWhirlpool, RunOptions{Grouping: g}))
			row = append(row, Pct(float64(jig.Cycles)/float64(r.Cycles)-1))
		}
		at := h.App(app)
		if at.W.NumPoolsManual() > 0 {
			man := must(h.RunSingle(app, schemes.KindWhirlpool, RunOptions{}))
			row = append(row, Pct(float64(jig.Cycles)/float64(man.Cycles)-1),
				fmt.Sprintf("%d", at.W.NumPoolsManual()))
		} else {
			row = append(row, "-", "-")
		}
		t.AddRow(row...)
	}
	return t
}

// Fig17 renders WhirlTool's clustering dendrograms for dt and omnetpp
// (Fig 17).
func (h *Harness) Fig17() string {
	out := "== Fig 17: WhirlTool hierarchical clustering ==\n"
	for _, app := range []string{"delaunay", "omnet"} {
		at := h.App(app)
		d := h.Dendrogram(app, true)
		nameOf := func(cp mem.Callpoint) string {
			i := int(cp) - 1
			if i >= 0 && i < len(at.W.Structs) {
				return at.W.Structs[i].Spec.Name
			}
			return fmt.Sprintf("cp%d", cp)
		}
		out += fmt.Sprintf("\n%s:\n%s", app, d.Render(nameOf))
	}
	return out
}

// Fig18 compares WhirlTool profiles from train vs ref inputs on the apps
// the paper calls out as sensitive (Fig 18).
func (h *Harness) Fig18() *Table {
	t := &Table{
		Title: "Fig 18: WhirlTool sensitivity to training inputs (speedup vs Jigsaw, 3 pools)",
		Cols:  []string{"app", "profile train", "profile ref"},
	}
	for _, app := range []string{"leslie", "omnet", "xalanc", "setCover"} {
		jig := must(h.RunSingle(app, schemes.KindJigsaw, RunOptions{}))
		gTrain := h.WhirlToolGrouping(app, 3, true)
		gRef := h.WhirlToolGrouping(app, 3, false)
		rTrain := must(h.RunSingle(app, schemes.KindWhirlpool, RunOptions{Grouping: gTrain}))
		rRef := must(h.RunSingle(app, schemes.KindWhirlpool, RunOptions{Grouping: gRef}))
		t.AddRow(app,
			Pct(float64(jig.Cycles)/float64(rTrain.Cycles)-1),
			Pct(float64(jig.Cycles)/float64(rRef.Cycles)-1))
	}
	return t
}

// Fig21 runs the whole single-threaded suite under all six schemes and
// reports gmean slowdown vs Whirlpool plus energy and access breakdowns
// (Fig 21). WhirlTool classification (3 pools, train inputs) stands in
// for Whirlpool's classification, as in the paper's final evaluation.
func (h *Harness) Fig21(apps []string) (*Table, map[schemes.Kind][]*sim.Result) {
	all := make(map[schemes.Kind][]*sim.Result)
	for _, app := range apps {
		grouping := h.WhirlToolGrouping(app, 3, true)
		for _, k := range schemes.PaperKinds() {
			opt := RunOptions{}
			if k == schemes.KindWhirlpool {
				opt.Grouping = grouping
			}
			all[k] = append(all[k], must(h.RunSingle(app, k, opt)))
		}
	}
	t := &Table{
		Title: "Fig 21: overall single-threaded results (" + fmt.Sprint(len(apps)) + " apps)",
		Cols: []string{"scheme", "gmean slowdown", "DME (norm)", "net", "bank", "mem",
			"LLC APKI", "hits", "misses", "bypasses"},
	}
	base := all[schemes.KindWhirlpool]
	var baseEnergy float64
	for _, r := range base {
		baseEnergy += r.Energy.Total()
	}
	for _, k := range schemes.PaperKinds() {
		rs := all[k]
		ratios := make([]float64, len(rs))
		var eTot, eNet, eBank, eMem float64
		var demand, hits, misses, byp, instrs uint64
		for i, r := range rs {
			ratios[i] = float64(r.Cycles) / float64(base[i].Cycles)
			eTot += r.Energy.Total()
			eNet += r.Energy.NetworkPJ
			eBank += r.Energy.BankPJ
			eMem += r.Energy.MemoryPJ
			demand += r.Demand
			hits += r.Hits
			misses += r.Misses
			byp += r.Bypasses
			instrs += r.Instrs
		}
		instrK := float64(instrs) / 1000
		t.AddRow(k.String(),
			Pct(stats.Gmean(ratios)-1),
			F(eTot/baseEnergy, 3),
			F(eNet/baseEnergy, 3),
			F(eBank/baseEnergy, 3),
			F(eMem/baseEnergy, 3),
			F(float64(demand)/instrK, 1),
			F(float64(hits)/instrK, 1),
			F(float64(misses)/instrK, 1),
			F(float64(byp)/instrK, 1))
	}
	t.AddNote("slowdown vs Whirlpool (gmean over apps); energy normalized to Whirlpool total")
	return t, all
}

// MixSpec names one multi-programmed mix.
type MixSpec struct {
	Apps []string
}

// RandomMixes draws n mixes of size k from the SPEC-like apps, as in
// Appendix A ("random mixes of memory-intensive SPEC CPU2006 apps").
func RandomMixes(n, k int, seed uint64) []MixSpec {
	var specApps []string
	for _, s := range workloads.Specs() {
		if s.Suite == "spec" {
			specApps = append(specApps, s.Name)
		}
	}
	rng := stats.NewRng(seed)
	mixes := make([]MixSpec, n)
	for i := range mixes {
		apps := make([]string, k)
		for j := range apps {
			apps[j] = specApps[rng.Intn(len(specApps))]
		}
		mixes[i] = MixSpec{Apps: apps}
	}
	return mixes
}

// Fig22Row is one scheme's weighted-speedup distribution over mixes.
type Fig22Row struct {
	Label    string
	Speedups []float64 // sorted descending (inverse CDF)
	Gmean    float64
}

// Fig22 runs multi-programmed mixes at 4 or 16 cores and reports weighted
// speedup over Jigsaw for Whirlpool and the no-bypass ablations (Fig 22).
func (h *Harness) Fig22(mixes []MixSpec, cores16 bool) (*Table, []Fig22Row) {
	chipFor := func() *noc.Chip {
		if cores16 {
			return noc.SixteenCoreChip()
		}
		return noc.FourCoreChip()
	}
	type variant struct {
		label    string
		kind     schemes.Kind
		noBypass bool
	}
	variants := []variant{
		{"Whirlpool", schemes.KindWhirlpool, false},
		{"Whirlpool-NoBypass", schemes.KindWhirlpool, true},
		{"Jigsaw-NoBypass", schemes.KindJigsaw, true},
	}
	rows := make([]Fig22Row, len(variants))
	for i := range rows {
		rows[i].Label = variants[i].label
	}
	for _, mix := range mixes {
		base := must(h.RunMix(mix.Apps, schemes.KindJigsaw, chipFor(), false))
		for vi, v := range variants {
			r := must(h.RunMix(mix.Apps, v.kind, chipFor(), v.noBypass))
			ws := 0.0
			for c := range mix.Apps {
				ws += r.Cores[c].IPC() / base.Cores[c].IPC()
			}
			rows[vi].Speedups = append(rows[vi].Speedups, ws/float64(len(mix.Apps)))
		}
	}
	label := "4 cores"
	if cores16 {
		label = "16 cores"
	}
	t := &Table{
		Title: "Fig 22 (" + label + "): weighted speedup vs Jigsaw over mixes",
		Cols:  []string{"scheme", "gmean", "min", "p25", "median", "p75", "max"},
	}
	for i := range rows {
		rows[i].Speedups = stats.SortedDescending(rows[i].Speedups)
		rows[i].Gmean = stats.Gmean(rows[i].Speedups)
		s := rows[i].Speedups
		t.AddRow(rows[i].Label,
			F(rows[i].Gmean, 4),
			F(s[len(s)-1], 4),
			F(stats.Percentile(s, 25), 4),
			F(stats.Percentile(s, 50), 4),
			F(stats.Percentile(s, 75), 4),
			F(s[0], 4))
	}
	return t, rows
}

// Table2 reproduces the manual-port summary (Table 2).
func (h *Harness) Table2() *Table {
	t := &Table{
		Title: "Table 2: manually ported applications",
		Cols:  []string{"application", "pools", "data structures", "LOC"},
	}
	for _, s := range workloads.Specs() {
		if len(s.ManualPools) == 0 {
			continue
		}
		names := ""
		for i, st := range s.Structs {
			if i > 0 {
				names += ", "
			}
			names += st.Name
		}
		t.AddRow(s.Name, fmt.Sprintf("%d", len(s.ManualPools)), names,
			fmt.Sprintf("%d", s.ManualLOC))
	}
	return t
}

// Table3 prints the simulated system configuration (Table 3).
func Table3() *Table {
	t := &Table{
		Title: "Table 3: simulated system configuration",
		Cols:  []string{"component", "configuration"},
	}
	t.AddRow("Cores", "4/16 cores, OOO-equivalent stall model, 2 GHz")
	t.AddRow("L1 caches", "32KB, 8-way, split D/I, 4-cycle latency")
	t.AddRow("L2 caches", "128KB private per-core, 8-way, inclusive, 6-cycle latency")
	t.AddRow("L3 cache", "512KB/bank, zcache-equivalent assoc, 9-cycle bank latency")
	t.AddRow("NoC", "5x5/9x9 mesh, X-Y routing, 3-cycle routers, 2-cycle links")
	t.AddRow("Memory", "1/4 MCUs, 120-cycle zero-load latency")
	return t
}
