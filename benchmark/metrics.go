package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"whirlpool/internal/schemes"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root declares the same lists; a test keeps them equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (README.md says what each means on each
// workload); none of them can be zero on a correct run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"op_p50_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, timed from outside each layer's
// public entry points. A layer a workload does not exercise reports 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"host.scale", "ratio"},
		{"workloads.gen_ns_per_access", "ns"},
		{"trace.filter_ns_per_access", "ns"},
		{"trace.bytes_per_access", "B"},
		{"trace.open_ms", "ms"},
		{"trace.decode_ns_per_access", "ns"},
		{"sim.sched_ns_per_access", "ns"},
		{"sim.mips", "Minstr/s"},
		{"sim.speedup_wp_vs_jigsaw", "ratio"},
		{"sim.energy_wp_vs_jigsaw", "ratio"},
	}
	for _, k := range schemes.PaperKinds() {
		p := "llc." + k.ID() + "."
		defs = append(defs,
			metricDef{p + "access_ns", "ns"},
			metricDef{p + "tick_ms", "ms"},
			metricDef{p + "ticks", "count"},
			metricDef{p + "hit_ratio", "ratio"},
		)
	}
	return append(defs,
		metricDef{"experiments.cell_ms_p50", "ms"},
		metricDef{"experiments.cell_ms_max", "ms"},
		metricDef{"experiments.idle_frac", "ratio"},
		metricDef{"experiments.warm_resolve_ms", "ms"},
		metricDef{"results.open_ms", "ms"},
		metricDef{"results.put_us_p50", "us"},
		metricDef{"results.put_ms_max", "ms"},
		metricDef{"results.close_ms", "ms"},
		metricDef{"results.get_us_p50", "us"},
		metricDef{"results.appendraw_us_p50", "us"},
		metricDef{"results.appendraw_us_p99", "us"},
		metricDef{"server.results_p50_ms", "ms"},
		metricDef{"server.results_p99_ms", "ms"},
		metricDef{"server.jobs_p50_ms", "ms"},
		metricDef{"server.sweeps_p50_ms", "ms"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"loadgen.sent", "count"},
		metricDef{"loadgen.dropped", "count"},
		metricDef{"loadgen.results_p99_ms", "ms"},
		metricDef{"loadgen.jobs_p95_ms", "ms"},
		metricDef{"loadgen.capacity_rps", "1/s"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.heap_peak_mb", "MB"},
		metricDef{"trace_overhead_frac", "ratio"},
	)
}

// metricValue is one metric as printed in the result JSON.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// samples is the sample count behind each metric that is a
	// percentile or a median; it is printed in the table, not the JSON.
	samples map[string]int
	// problems explains failed ops and broken invariants, the first
	// maxProblems of them; unlisted counts the rest.
	problems []string
	unlisted int
	// notes are caveats that do not make the run incorrect.
	notes []string
}

func newResult() *result {
	return &result{Metrics: map[string]metricValue{}, samples: map[string]int{}}
}

// maxProblems bounds how many problems a run lists.
const maxProblems = 20

// fail records n failed ops and why.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	r.problem(format, args...)
}

// problem records a broken invariant; the run is then incorrect.
func (r *result) problem(format string, args ...any) {
	if len(r.problems) == maxProblems {
		r.unlisted++
		return
	}
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// set records a metric; the unit comes from the declaration. Values
// that are not finite (an empty ratio) are reported as 0 with a problem
// noted, so the JSON stays valid.
func (r *result) set(defs []metricDef, name string, v float64, samples int) {
	for _, d := range defs {
		if d.name != name {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("%s is not finite; reported as 0", name)
			v = 0
		}
		r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
		if samples > 0 {
			r.samples[name] = samples
		}
		return
	}
	panic("benchmark: undeclared metric " + name)
}

// finish fills every declared metric the run did not set with 0 (a
// layer this workload does not exercise) and settles Correct.
func (r *result) finish(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.Metrics[d.name]; !ok {
			r.Metrics[d.name] = metricValue{Value: 0, Unit: d.unit}
		}
	}
	if r.Attempted < 1 {
		r.problem("no operation was attempted")
	}
	r.Correct = r.Failed == 0 && len(r.problems) == 0
}

// printTable writes the human-readable report.
func (r *result) printTable(w io.Writer, workload string, defs []metricDef) {
	fmt.Fprintf(w, "workload %s: correct=%t attempted=%d failed=%d\n", workload, r.Correct, r.Attempted, r.Failed)
	for _, d := range defs {
		m := r.Metrics[d.name]
		line := fmt.Sprintf("  %-34s %14.6g %-9s", d.name, m.Value, d.unit)
		if n, ok := r.samples[d.name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	if r.unlisted > 0 {
		fmt.Fprintf(w, "  ... and %d more problems\n", r.unlisted)
	}
}

// median returns the middle of xs (the mean of the two middle values
// for an even count) without reordering xs; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (p in
// (0, 100]); 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// maxOf returns the largest of xs; 0 for no samples.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentileLadder are the percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// tailPercentile is the highest percentile on the ladder that leaves at
// least ten of n samples beyond it — the highest tail n samples can
// support — or 0 when even the median cannot.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// setPercentile records the p-th percentile of samples and flags it
// when fewer than ten samples lie beyond it.
func (r *result) setPercentile(defs []metricDef, name string, samples []float64, p float64) {
	r.set(defs, name, percentile(samples, p), len(samples))
	if p > 50 && tailPercentile(len(samples)) < p {
		r.notes = append(r.notes, fmt.Sprintf("%s rests on %d samples, fewer than ten beyond p%g", name, len(samples), p))
	}
}

// geomean returns the geometric mean of positive xs; NaN for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
