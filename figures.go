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
	// Apps restricts suite-wide figures to a subset (nil = full suite).
	Apps []string
	// Mixes is the mix count for Fig 22 (default 20, as in the paper).
	Mixes int
	// Seed overrides the workload-generation seed (0 = the published
	// default).
	Seed uint64
}

// Figures lists the regenerable table/figure ids.
func Figures() []string {
	return []string{
		"fig2", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11", "fig13",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"fig23", "table2", "table3",
		"ablation-latency", "ablation-trading", "ablation-bypass",
	}
}

// Figure regenerates one of the paper's tables or figures and returns it
// rendered as text. See Figures() for valid ids.
func Figure(id string, opt *FigureOptions) (string, error) {
	o := FigureOptions{}
	if opt != nil {
		o = *opt
	}
	scale, err := experiments.CheckScale(o.Scale)
	if err != nil {
		return "", fmt.Errorf("whirlpool: %w", err)
	}
	if o.Mixes == 0 {
		o.Mixes = 20
	}
	// Default to the built-in suite only: loaded spec files must not
	// silently change which apps a paper figure averages over.
	apps := o.Apps
	if apps == nil {
		apps = workloads.BuiltinNames()
	}
	h := harnessFor(harnessKey{scale: scale, seed: o.Seed})
	switch id {
	case "fig2":
		return h.Fig02().String(), nil
	case "fig5", "fig3", "fig4":
		return h.Fig05(), nil
	case "fig6":
		return h.Fig06().String(), nil
	case "fig8":
		return h.Fig08().String(), nil
	case "fig9":
		return h.Fig09().String(), nil
	case "fig10":
		return h.Fig10().String(), nil
	case "fig11":
		return h.Fig11().String(), nil
	case "fig13":
		par := ParallelApps()
		return h.Fig13(par).String(), nil
	case "fig16":
		return h.Fig16(apps).String(), nil
	case "fig17":
		return h.Fig17(), nil
	case "fig18":
		return h.Fig18().String(), nil
	case "fig19":
		return h.Fig19().String(), nil
	case "fig20":
		return h.Fig20().String(), nil
	case "fig21":
		t, _ := h.Fig21(apps)
		return t.String(), nil
	case "fig22":
		mixes4 := experiments.RandomMixes(o.Mixes, 4, 0xA11CE)
		t4, _ := h.Fig22(mixes4, false)
		mixes16 := experiments.RandomMixes(o.Mixes, 16, 0xB0B)
		t16, _ := h.Fig22(mixes16, true)
		return t4.String() + "\n" + t16.String(), nil
	case "fig23":
		return experiments.Fig23().String(), nil
	case "table2":
		return h.Table2().String(), nil
	case "table3":
		return experiments.Table3().String(), nil
	case "ablation-latency":
		return h.AblationLatencyCurves("delaunay").String(), nil
	case "ablation-trading":
		return h.AblationTrading("delaunay").String(), nil
	case "ablation-bypass":
		return h.AblationBypass(apps).String(), nil
	}
	valid := Figures()
	sort.Strings(valid)
	return "", fmt.Errorf("whirlpool: unknown figure %q (valid: %v)", id, valid)
}
