package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"whirlpool/internal/experiments"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1000000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median(%v) = %g, want 2.5", xs, got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %g, want 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g, want 0", got)
	}
	if !slices.Equal(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.1: 1} {
		if got := percentile(hundred, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
}

func TestCheckJobs(t *testing.T) {
	for body, ok := range map[string]bool{
		`{"jobs": []}`: true,
		`{"jobs": [{"id": "j1", "state": "done", "served": 1}, {"id": "j2", "state": "running"}]}`: true,
		`{"jobs": [{"id": "j1", "state": "failed"}]}`:                                              false,
		`{"jobs": [{"id": "j1", "state": "done", "computed": 1}]}`:                                 false,
		`{"jobs": [{"id": "j1", "state": "done", "cell_errors": 1}]}`:                              false,
		`not json`: false,
	} {
		if err := checkJobs([]byte(body)); (err == nil) != ok {
			t.Errorf("checkJobs(%s) = %v, want ok=%t", body, err, ok)
		}
	}
}

func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer()...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("bad metric %q (unit %q)", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range benchWorkloads {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("bad workload name %q", w.name)
		}
		seen[w.name] = true
	}
}

// declaration is the part of BENCHMARK.json the benchmark must match.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclarationMatches(t *testing.T) {
	d := readDeclaration(t)
	var workloads []string
	for _, w := range d.Workloads {
		workloads = append(workloads, w.Name)
	}
	var ours []string
	for _, w := range benchWorkloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(workloads, ours) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", workloads, ours)
	}
	var e2e, layer []metricDef
	for _, m := range d.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range d.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, the benchmark emits %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer %v, the benchmark emits %v", layer, perLayer())
	}
}

func TestGoldenFiles(t *testing.T) {
	cells := map[string]int{
		"sweep-cold": len(fullSize.sweepApps) * 6,
		"sweep-warm": len(fullSize.sweepApps) * 6,
		"mix16":      fullSize.mixCount * 3,
		"serve":      len(fullSize.serveApps) * 6,
	}
	for _, w := range benchWorkloads {
		data, err := goldenFS.ReadFile("golden/" + w.name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var rows []experiments.SweepRow
		if err := json.Unmarshal(data, &rows); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(rows) != cells[w.name] {
			t.Errorf("golden/%s.json has %d rows, want %d", w.name, len(rows), cells[w.name])
		}
		for _, r := range rows {
			if r.Err != "" || r.Cycles == 0 || r.WallMS != 0 || r.Key != "" {
				t.Errorf("golden/%s.json: bad row %+v", w.name, r)
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2"}, {"-seconds", "0"}, {"-workload", "nope"}, {"extra"},
		{"-write-golden", "x", "-seed", "1"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no output", args, code, out.String())
		}
	}
}

// TestShortRun runs every workload end to end and traced at toy size
// through the command line, and checks the result line: correct, no
// failed op, and exactly the declared metrics, none of the end-to-end
// ones zero.
func TestShortRun(t *testing.T) {
	d := readDeclaration(t)
	for _, w := range benchWorkloads {
		for _, traced := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			args := []string{"-workload", w.name, "-short", "-seconds", "0.5", "-trace", traced, "-seed", "5", "-workdir", t.TempDir()}
			code := run(args, &out, &errOut)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || code != 0 {
				t.Fatalf("%s trace=%s: exit %d, %v\n%s", w.name, traced, code, err, errOut.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%t failed=%d attempted=%d\n%s", w.name, traced, res.Correct, res.Failed, res.Attempted, errOut.String())
			}
			var want []string
			if traced == "0" {
				for _, m := range d.EndToEnd {
					want = append(want, m.Name)
					if res.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: %s is 0", w.name, m.Name)
					}
				}
			} else {
				for _, m := range d.PerLayer {
					want = append(want, m.Name)
				}
			}
			var got []string
			for n := range res.Metrics {
				got = append(got, n)
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%s: metrics %v, want %v", w.name, traced, got, want)
			}
		}
	}
}
