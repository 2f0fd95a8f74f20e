// Public API tests: the contract a downstream user of the library sees.
package whirlpool_test

import (
	"math"
	"strings"
	"testing"

	"whirlpool"
)

var apiScale = whirlpool.WithScale(0.05)

func TestRunUnknownApp(t *testing.T) {
	if _, err := whirlpool.New("nosuch", whirlpool.Jigsaw).Run(); err == nil {
		t.Fatal("expected error for unknown app")
	}
}

func TestRunUnknownScheme(t *testing.T) {
	if _, err := whirlpool.New("delaunay", whirlpool.Scheme("bogus")).Run(); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
}

func TestAppsListed(t *testing.T) {
	// The built-in suite is 31 apps; spec files loaded elsewhere in this
	// test binary may layer more on top, never fewer.
	apps := map[string]bool{}
	for _, a := range whirlpool.Apps() {
		apps[a] = true
	}
	if len(apps) < 31 {
		t.Fatalf("Apps() = %d entries, want at least the 31 built-ins", len(apps))
	}
	for _, a := range []string{"delaunay", "MIS", "mcf", "lbm", "hull"} {
		if !apps[a] {
			t.Fatalf("built-in %q missing from Apps()", a)
		}
	}
	par := whirlpool.ParallelApps()
	if len(par) != 6 {
		t.Fatalf("ParallelApps() = %d entries, want 6", len(par))
	}
}

func TestRunReportFields(t *testing.T) {
	r, err := whirlpool.New("mcf", whirlpool.Whirlpool, apiScale).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 || r.IPC <= 0 || r.EnergyPJ <= 0 || r.LLCAccesses == 0 {
		t.Fatalf("incomplete report: %+v", r)
	}
	if r.Hits+r.Misses+r.Bypasses != r.LLCAccesses {
		t.Fatal("outcome counts do not sum to accesses")
	}
	sum := r.NetworkEnergyPJ + r.BankEnergyPJ + r.MemoryEnergyPJ
	if sum < r.EnergyPJ*0.999 || sum > r.EnergyPJ*1.001 {
		t.Fatal("energy components do not sum to total")
	}
}

func TestCompareCoversAllSchemes(t *testing.T) {
	m, err := whirlpool.New("hull", "", apiScale).Compare()
	if err != nil {
		t.Fatal(err)
	}
	// Compare covers every registered scheme: the paper's six plus any
	// registered by other tests in this binary.
	all := whirlpool.Schemes()
	if len(all) < 6 {
		t.Fatalf("Schemes() = %d entries, want at least 6", len(all))
	}
	if len(m) != len(all) {
		t.Fatalf("Compare returned %d schemes, want %d", len(m), len(all))
	}
	for _, s := range []whirlpool.Scheme{whirlpool.SNUCALRU, whirlpool.Whirlpool} {
		if _, ok := m[s]; !ok {
			t.Fatalf("Compare missing %q", s)
		}
	}
}

func TestAutoClassifyMIS(t *testing.T) {
	pools, err := whirlpool.New("MIS", whirlpool.Whirlpool, apiScale).Classify(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pools) != 2 {
		t.Fatalf("pools = %v", pools)
	}
	// The streaming edges structure must be isolated (the Sec 3.3 case).
	edgesAlone := false
	for _, g := range pools {
		if len(g) == 1 && g[0] == "edges" {
			edgesAlone = true
		}
	}
	if !edgesAlone {
		t.Fatalf("WhirlTool failed to isolate edges: %v", pools)
	}
}

func TestExplicitPoolsOption(t *testing.T) {
	r, err := whirlpool.New("delaunay", whirlpool.Whirlpool,
		apiScale, whirlpool.WithPools([]int{0, 1}, []int{2})).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.LLCAccesses == 0 {
		t.Fatal("empty run")
	}
}

func TestRunParallelVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel run is slow")
	}
	base, err := whirlpool.RunParallel("fft", whirlpool.ParSNUCA)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := whirlpool.RunParallel("fft", whirlpool.ParWhirlpoolPaWS)
	if err != nil {
		t.Fatal(err)
	}
	if wp.Cycles >= base.Cycles {
		t.Errorf("W+PaWS (%.0f) should beat S-NUCA (%.0f) on fft", wp.Cycles, base.Cycles)
	}
}

func TestFigureUnknown(t *testing.T) {
	if _, err := whirlpool.Figure("fig999", nil); err == nil {
		t.Fatal("expected error")
	}
}

// A bad scale must be an error, not a run that never ends: these cases
// would otherwise ask the workload generator for an unbounded trace.
func TestBadScaleRejected(t *testing.T) {
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := whirlpool.Figure("fig16", &whirlpool.FigureOptions{Scale: scale, Apps: []string{"delaunay"}}); err == nil ||
			!strings.Contains(err.Error(), "scale must be a finite number >= 0") {
			t.Errorf("Figure(fig16, Scale %g) = %v, want the scale error", scale, err)
		}
		if _, err := whirlpool.New("delaunay", whirlpool.SNUCALRU, whirlpool.WithScale(scale)).Run(); err == nil ||
			!strings.Contains(err.Error(), "scale must be a finite number >= 0") {
			t.Errorf("WithScale(%g).Run() = %v, want the scale error", scale, err)
		}
	}
}

// Bad figure options must be errors, checked before any run: an
// unknown app and a negative mix count would otherwise panic inside the
// figure builders.
func TestBadFigureOptionsRejected(t *testing.T) {
	for _, tc := range []struct {
		id   string
		opt  whirlpool.FigureOptions
		want string
	}{
		{"fig16", whirlpool.FigureOptions{Scale: 0.01, Apps: []string{"delaunay", "nosuch"}}, `whirlpool: unknown app "nosuch"`},
		{"fig22", whirlpool.FigureOptions{Scale: 0.01, Mixes: -1}, "whirlpool: mixes must be >= 0"},
		{"fig21", whirlpool.FigureOptions{Scale: 0.01, Apps: []string{}}, "whirlpool: the app list is empty"},
		{"ablation-bypass", whirlpool.FigureOptions{Scale: 0.01, Apps: []string{}}, "whirlpool: the app list is empty"},
	} {
		if _, err := whirlpool.Figure(tc.id, &tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Figure(%s, %+v) = %v, want %q", tc.id, tc.opt, err, tc.want)
		}
	}
}

func TestFigureTable3(t *testing.T) {
	out, err := whirlpool.Figure("table3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "512KB/bank") {
		t.Fatalf("table 3 content missing:\n%s", out)
	}
}

func TestFigureFig23(t *testing.T) {
	out, err := whirlpool.Figure("fig23", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "combined") {
		t.Fatal("fig23 missing content")
	}
}

func TestFiguresListed(t *testing.T) {
	ids := whirlpool.Figures()
	if len(ids) < 18 {
		t.Fatalf("only %d figures registered", len(ids))
	}
}

// The paper's headline dt ordering through the public API. Needs enough
// run length for the D-NUCA runtimes to converge, so it uses a larger
// scale than the plumbing tests.
func TestHeadlineOrdering(t *testing.T) {
	scale := whirlpool.WithScale(0.2)
	snuca, err := whirlpool.New("delaunay", whirlpool.SNUCALRU, scale).Run()
	if err != nil {
		t.Fatal(err)
	}
	jig, err := whirlpool.New("delaunay", whirlpool.Jigsaw, scale).Run()
	if err != nil {
		t.Fatal(err)
	}
	whl, err := whirlpool.New("delaunay", whirlpool.Whirlpool, scale).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !(whl.Cycles < jig.Cycles && jig.Cycles < snuca.Cycles) {
		t.Errorf("ordering broken: whirlpool %.0f, jigsaw %.0f, snuca %.0f",
			whl.Cycles, jig.Cycles, snuca.Cycles)
	}
}
