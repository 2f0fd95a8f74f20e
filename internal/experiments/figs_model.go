package experiments

import (
	"math"

	"whirlpool/internal/energy"
	"whirlpool/internal/jigsaw"
	"whirlpool/internal/llc"
	"whirlpool/internal/mrc"
	"whirlpool/internal/noc"
	"whirlpool/internal/schemes"
)

// Fig23 demonstrates the Appendix B combining model on the paper's two
// examples: combining dissimilar curves, and recombining two halves of
// the same pool (which must reproduce the original shape).
func Fig23() *Table {
	t := &Table{
		Title: "Fig 23: Appendix B miss-curve combining model",
		Cols:  []string{"size", "m1", "m2", "combined(m1,m2)", "m1-half", "recombined", "2x half"},
	}
	n := 12
	m1 := make([]float64, n+1)
	m2 := make([]float64, n+1)
	half := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		m1[i] = 100 * math.Pow(2, -float64(i)/2.5) // cache-friendly
		m2[i] = 80 - 2*float64(i)                  // slowly improving
		half[i] = m1[i] / 2                        // half the flow of m1
	}
	a := mrc.Curve{Gran: 1, M: m1, Accesses: 100}
	b := mrc.Curve{Gran: 1, M: m2, Accesses: 80}
	hcurve := mrc.Curve{Gran: 1, M: half, Accesses: 50}
	comb := mrc.Combine(a, b)
	recomb := mrc.Combine(hcurve, hcurve)
	for i := 0; i <= n; i++ {
		t.AddRow(F(float64(i), 0), F(m1[i], 1), F(m2[i], 1), F(comb.M[i], 1),
			F(half[i], 1), F(recomb.M[i], 1), F(2*hcurve.M[i/2], 1))
	}
	t.AddNote("recombined(half,half) at size s tracks the original pool at size s/2 x2: the model is insensitive to splitting a pool into subpools (Fig 23b)")
	return t
}

// AblationLatencyCurves compares Jigsaw sizing with latency curves (the
// paper's design) against pure miss-curve sizing: miss curves ignore
// network distance and over-allocate far banks (Sec 2.4).
func (h *Harness) AblationLatencyCurves(app string) *Table {
	t := &Table{
		Title: "Ablation: latency-curve vs miss-curve VC sizing (" + app + ")",
		Cols:  []string{"sizing", "cycles", "DME total", "net energy"},
	}
	run := func(missOnly bool) {
		at := h.App(app)
		label := "latency curves (paper)"
		if missOnly {
			label = "miss curves only"
		}
		r := must(h.RunSingle(app, schemes.KindWhirlpool, RunOptions{
			LLCOverride: func(chip *noc.Chip, m *energy.Meter) llc.LLC {
				return jigsaw.New(jigsaw.Config{
					Chip: chip, Meter: m,
					Classify:        poolClassifier(at.W, at.W.ManualGrouping(), 0),
					SchemeName:      "Whirlpool",
					BypassEnabled:   true,
					ReconfigCycles:  h.ReconfigCycles,
					MissCurveSizing: missOnly,
				})
			},
		}))
		t.AddRow(label, F(float64(r.Cycles)/1e6, 2), F(r.Energy.Total()/1e9, 3),
			F(r.Energy.NetworkPJ/1e9, 3))
	}
	run(false)
	run(true)
	return t
}

// AblationTrading compares the trading placement pass against greedy-only
// placement.
func (h *Harness) AblationTrading(app string) *Table {
	t := &Table{
		Title: "Ablation: trading vs greedy-only placement (" + app + ")",
		Cols:  []string{"placement", "cycles", "net energy"},
	}
	run := func(noTrading bool) {
		at := h.App(app)
		label := "greedy + trading (paper)"
		if noTrading {
			label = "greedy only"
		}
		r := must(h.RunSingle(app, schemes.KindWhirlpool, RunOptions{
			LLCOverride: func(chip *noc.Chip, m *energy.Meter) llc.LLC {
				return jigsaw.New(jigsaw.Config{
					Chip: chip, Meter: m,
					Classify:       poolClassifier(at.W, at.W.ManualGrouping(), 0),
					SchemeName:     "Whirlpool",
					BypassEnabled:  true,
					ReconfigCycles: h.ReconfigCycles,
					NoTrading:      noTrading,
				})
			},
		}))
		t.AddRow(label, F(float64(r.Cycles)/1e6, 2), F(r.Energy.NetworkPJ/1e9, 3))
	}
	run(false)
	run(true)
	return t
}

// AblationBypass quantifies VC bypassing for both Jigsaw and Whirlpool
// (the paper: without bypassing, Jigsaw loses 0.2%, Whirlpool 1.2%).
func (h *Harness) AblationBypass(apps []string) *Table {
	t := &Table{
		Title: "Ablation: VC bypassing (gmean slowdown when disabled)",
		Cols:  []string{"scheme", "with bypass", "no bypass", "slowdown"},
	}
	for _, k := range []schemes.Kind{schemes.KindJigsaw, schemes.KindWhirlpool} {
		var with, without float64
		for _, app := range apps {
			a := must(h.RunSingle(app, k, RunOptions{}))
			b := must(h.RunSingle(app, k, RunOptions{NoBypass: true}))
			with += float64(a.Cycles)
			without += float64(b.Cycles)
		}
		t.AddRow(k.String(), F(with/1e6, 1), F(without/1e6, 1), Pct(without/with-1))
	}
	return t
}
