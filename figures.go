package whirlpool

import (
	"fmt"
	"sort"

	"whirlpool/internal/experiments"
	"whirlpool/internal/workloads"
)

// FigureOptions control figure regeneration.
type FigureOptions struct {
	// Scale multiplies workload length (default 1.0; smaller is faster).
	Scale float64
	// Apps restricts suite-wide figures to a subset (nil = full suite;
	// an empty non-nil list is an error).
	Apps []string
	// Mixes is the mix count for Fig 22 (default 20, as in the paper).
	Mixes int
	// Seed overrides the workload-generation seed (0 = the published
	// default).
	Seed uint64
}

// figureRun is what a renderer draws on: the harness for the options'
// scale and seed, the app subset and the Fig 22 mix count.
type figureRun struct {
	*experiments.Harness
	apps  []string
	mixes int
}

// figures is the one ordered id → renderer table: Figures lists its
// ids and Figure runs the matching renderer.
var figures = []struct {
	id     string
	render func(r figureRun) string
}{
	{"fig2", func(r figureRun) string { return r.Fig02().String() }},
	{"fig5", func(r figureRun) string { return r.Fig05() }},
	{"fig6", func(r figureRun) string { return r.Fig06().String() }},
	{"fig8", func(r figureRun) string { return r.Fig08().String() }},
	{"fig9", func(r figureRun) string { return r.Fig09().String() }},
	{"fig10", func(r figureRun) string { return r.Fig10().String() }},
	{"fig11", func(r figureRun) string { return r.Fig11().String() }},
	{"fig13", func(r figureRun) string { return r.Fig13(ParallelApps()).String() }},
	{"fig16", func(r figureRun) string { return r.Fig16(r.apps).String() }},
	{"fig17", func(r figureRun) string { return r.Fig17() }},
	{"fig18", func(r figureRun) string { return r.Fig18().String() }},
	{"fig19", func(r figureRun) string { return r.Fig19().String() }},
	{"fig20", func(r figureRun) string { return r.Fig20().String() }},
	{"fig21", func(r figureRun) string {
		t, _ := r.Fig21(r.apps)
		return t.String()
	}},
	{"fig22", func(r figureRun) string {
		t4, _ := r.Fig22(experiments.RandomMixes(r.mixes, 4, 0xA11CE), false)
		t16, _ := r.Fig22(experiments.RandomMixes(r.mixes, 16, 0xB0B), true)
		return t4.String() + "\n" + t16.String()
	}},
	{"fig23", func(figureRun) string { return experiments.Fig23().String() }},
	{"table2", func(r figureRun) string { return r.Table2().String() }},
	{"table3", func(figureRun) string { return experiments.Table3().String() }},
	{"ablation-latency", func(r figureRun) string { return r.AblationLatencyCurves("delaunay").String() }},
	{"ablation-trading", func(r figureRun) string { return r.AblationTrading("delaunay").String() }},
	{"ablation-bypass", func(r figureRun) string { return r.AblationBypass(r.apps).String() }},
}

// Figures lists the regenerable table/figure ids.
func Figures() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// Figure regenerates one of the paper's tables or figures and returns it
// rendered as text. See Figures() for valid ids; fig3 and fig4 are
// aliases of fig5, which plots both.
func Figure(id string, opt *FigureOptions) (string, error) {
	o := FigureOptions{}
	if opt != nil {
		o = *opt
	}
	scale, err := experiments.CheckScale(o.Scale)
	if err != nil {
		return "", fmt.Errorf("whirlpool: %w", err)
	}
	if o.Mixes < 0 {
		return "", fmt.Errorf("whirlpool: mixes must be >= 0 (0 means 20), got %d", o.Mixes)
	}
	if o.Mixes == 0 {
		o.Mixes = 20
	}
	if o.Apps != nil && len(o.Apps) == 0 {
		return "", fmt.Errorf("whirlpool: the app list is empty (nil means the full suite)")
	}
	for _, a := range o.Apps {
		if _, ok := workloads.ByName(a); !ok {
			return "", fmt.Errorf("whirlpool: unknown app %q (see Apps())", a)
		}
	}
	// Default to the built-in suite only: loaded spec files must not
	// silently change which apps a paper figure averages over.
	apps := o.Apps
	if apps == nil {
		apps = workloads.BuiltinNames()
	}
	if id == "fig3" || id == "fig4" {
		id = "fig5"
	}
	for _, f := range figures {
		if f.id == id {
			h := harnessFor(harnessKey{scale: scale, seed: o.Seed})
			return f.render(figureRun{h, apps, o.Mixes}), nil
		}
	}
	valid := Figures()
	sort.Strings(valid)
	return "", fmt.Errorf("whirlpool: unknown figure %q (valid: %v)", id, valid)
}
