package lint

import (
	"path/filepath"
	"testing"
)

// Fixture module paths are chosen so Match sees them the way it sees
// the real module: the determinism fixture is module
// fixture/internal/sim, which the determinism analyzer's suffix
// matcher accepts.
func TestMatchScoping(t *testing.T) {
	cases := []struct {
		a    *Analyzer
		path string
		want bool
	}{
		{Determinism, "whirlpool/internal/sim", true},
		{Determinism, "whirlpool", true},
		{Determinism, "fixture/internal/sim", true},
		{Determinism, "whirlpool/internal/server", false},
		{Determinism, "whirlpool/internal/obs", false},
		{Envelope, "whirlpool/internal/server", true},
		{Envelope, "whirlpool/internal/sim", false},
		{Registrylock, "whirlpool/internal/schemes", true},
		{Registrylock, "whirlpool/internal/workloads", true},
		{Registrylock, "whirlpool/internal/fleet", true},
		{Registrylock, "whirlpool/internal/sim", false},
	}
	for _, c := range cases {
		if got := c.a.Match(c.path); got != c.want {
			t.Errorf("%s.Match(%q) = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
	if Zeroalloc.Match != nil || Slogkeys.Match != nil {
		t.Error("zeroalloc and slogkeys are marker/callsite-scoped and must match every package")
	}
}

// Run end to end on a fixture: Match routes the determinism analyzer
// to the fixture package (module fixture/internal/sim), the other
// analyzers find nothing there, and the unknown-marker check always
// runs.
func TestRunOnFixture(t *testing.T) {
	dir := filepath.Join("testdata", "determinism")

	res, err := Run(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packages != 1 {
		t.Fatalf("Packages = %d, want 1", res.Packages)
	}
	var det, markers int
	for _, f := range res.Findings {
		switch f.Analyzer {
		case "determinism":
			det++
		case "markers":
			markers++
		default:
			t.Errorf("unexpected analyzer %q on determinism fixture: %s", f.Analyzer, f)
		}
		if f.File != "det.go" {
			t.Errorf("finding path %q not module-root-relative", f.File)
		}
	}
	if det == 0 || markers != 1 {
		t.Fatalf("got %d determinism + %d markers findings, want >0 and 1", det, markers)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{File: "internal/sim/sim.go", Line: 12, Col: 3, Analyzer: "determinism", Message: "m"}
	if got, want := f.String(), "internal/sim/sim.go:12:3: determinism: m"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
