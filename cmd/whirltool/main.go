// Command whirltool bundles the workload tooling around the simulator:
// WhirlTool's profile-guided classification (the default mode), the
// .wtrc trace record/replay toolchain, and the bench-trajectory
// formatter.
//
// Usage:
//
//	whirltool -app omnet -pools 3                  # classification (Fig 17)
//	whirltool trace record -app delaunay -o dt.wtrc
//	whirltool trace info dt.wtrc
//	whirltool trace cat dt.wtrc | head
//	whirltool load -spec traffic.json -base http://localhost:8080
//	whirltool spans http://localhost:8080/v1/jobs/j1/trace   # span waterfall
//	curl -s localhost:8080/metrics?format=prom | whirltool promlint -
//	go test -bench . -benchmem ./... | whirltool benchjson > BENCH_trace.json
//
// Recorded traces replay through every scheme, sweep, and figure via a
// "trace"-sourced spec app (docs/workload-specs.md).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"

	"whirlpool"
	"whirlpool/internal/cliutil"
	"whirlpool/internal/experiments"
	"whirlpool/internal/trace"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "whirltool:", err)
	os.Exit(1)
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "trace":
			traceCmd(os.Args[2:])
			return
		case "benchjson":
			benchJSONCmd(os.Args[2:])
			return
		case "benchdelta":
			benchDeltaCmd(os.Args[2:])
			return
		case "load":
			loadCmd(os.Args[2:])
			return
		case "spans":
			spansCmd(os.Args[2:])
			return
		case "promlint":
			promlintCmd(os.Args[2:])
			return
		}
	}
	classifyCmd()
}

// classifyCmd is the original whirltool mode: profile-guided pool
// classification.
func classifyCmd() {
	app := flag.String("app", "delaunay", "benchmark to classify")
	pools := flag.Int("pools", 3, "number of pools to produce")
	scale := flag.Float64("scale", 1.0, "profiling run length multiplier")
	seed := flag.Uint64("seed", 0, "workload generation seed (0 = the published default)")
	version := cliutil.VersionFlag()
	flag.Parse()
	cliutil.HandleVersion("whirltool", *version)

	opts := []whirlpool.Option{whirlpool.WithScale(*scale)}
	if *seed != 0 {
		opts = append(opts, whirlpool.WithSeed(*seed))
	}
	groups, err := whirlpool.New(*app, whirlpool.Whirlpool, opts...).Classify(*pools)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("WhirlTool classification of %s into %d pools:\n", *app, *pools)
	for i, g := range groups {
		fmt.Printf("  pool %d: %v\n", i+1, g)
	}
	dendro, err := whirlpool.Figure("fig17", &whirlpool.FigureOptions{Scale: *scale, Seed: *seed})
	if err == nil && (*app == "delaunay" || *app == "omnet") {
		fmt.Println()
		fmt.Println(dendro)
	}
}

// traceCmd dispatches the record/info/cat trace subcommands.
func traceCmd(args []string) {
	if len(args) == 0 {
		fatal(fmt.Errorf("usage: whirltool trace record|info|cat ..."))
	}
	switch args[0] {
	case "record":
		traceRecord(args[1:])
	case "info":
		traceInfo(args[1:])
	case "cat":
		traceCat(args[1:])
	default:
		fatal(fmt.Errorf("unknown trace subcommand %q (valid: record, info, cat)", args[0]))
	}
}

// traceRecord generates an app, filters it through the private levels,
// and writes the LLC trace as a .wtrc file.
func traceRecord(args []string) {
	fs := flag.NewFlagSet("trace record", flag.ExitOnError)
	app := fs.String("app", "delaunay", "app to record (built-in or from -spec files)")
	specFiles := fs.String("spec", "", "comma-separated workload-spec files to load first")
	scale := fs.Float64("scale", 1.0, "workload length multiplier")
	seed := fs.Uint64("seed", 0, "workload generation seed (0 = the published default)")
	out := fs.String("o", "", "output file (default <app>.wtrc)")
	fs.Parse(args)

	for _, path := range cliutil.SplitList(*specFiles) {
		if _, err := whirlpool.LoadSpecFile(path); err != nil {
			fatal(err)
		}
	}
	h := experiments.NewHarness(*scale)
	if *seed != 0 {
		h.Seed = *seed
	}
	at, err := h.AppErr(*app)
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = *app + ".wtrc"
	}
	if err := trace.WriteFile(path, at.Tr); err != nil {
		fatal(err)
	}
	s := at.Tr.Stats()
	fmt.Fprintf(os.Stderr, "whirltool: recorded %s: %d LLC accesses (%d demand), %d instrs -> %s (%d bytes)\n",
		*app, at.Tr.NumAccesses(), at.Tr.DemandAccesses(), s.Instrs, path, fileSize(path))
}

// traceInfo prints a .wtrc file's header and derived statistics.
func traceInfo(args []string) {
	fs := flag.NewFlagSet("trace info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("usage: whirltool trace info FILE.wtrc"))
	}
	path := fs.Arg(0)
	tr, err := trace.OpenMapped(path)
	if err != nil {
		fatal(err)
	}
	defer tr.Close()
	s := tr.Stats()
	wbacks := uint64(tr.NumAccesses()) - tr.DemandAccesses()
	fmt.Printf("%s: wtrc v%d\n", path, trace.FormatVersion)
	fmt.Printf("  accesses:     %d (%d demand + %d writeback)\n", tr.NumAccesses(), tr.DemandAccesses(), wbacks)
	fmt.Printf("  instructions: %d\n", s.Instrs)
	fmt.Printf("  LLC APKI:     %.2f\n", tr.LLCAPKI())
	fmt.Printf("  private lvls: %d raw accesses, %d L1 hits, %d L2 hits\n", s.RawAccesses, s.L1Hits, s.L2Hits)
	fmt.Printf("  base cycles:  %d\n", s.BaseCycles)
	fmt.Printf("  file bytes:   %d (%.2f B/access resident)\n", fileSize(path),
		float64(tr.EncodedBytes())/max(1, float64(tr.NumAccesses())))
}

// traceCat streams a .wtrc file as text, one access per line.
func traceCat(args []string) {
	fs := flag.NewFlagSet("trace cat", flag.ExitOnError)
	limit := fs.Int("n", 0, "print at most N accesses (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("usage: whirltool trace cat [-n N] FILE.wtrc"))
	}
	tr, err := trace.OpenMapped(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer tr.Close()
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(w, "# seq line gap flags (W=write, B=writeback)")
	cur := tr.NewCursor()
	for i := 0; *limit <= 0 || i < *limit; i++ {
		a, ok := cur.Next()
		if !ok {
			break
		}
		flags := "-"
		switch {
		case a.Writeback:
			flags = "B"
		case a.Write:
			flags = "W"
		}
		fmt.Fprintf(w, "%d %#x %d %s\n", i, uint64(a.Line), a.Gap, flags)
	}
	// A corrupt column stops the listing short, and a failed write
	// (closed pipe, full disk) truncates it: either way, exit 1.
	flushErr := w.Flush()
	if err := cur.Err(); err != nil {
		fatal(err)
	}
	if flushErr != nil {
		fatal(flushErr)
	}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return fi.Size()
}

// benchRow is one parsed benchmark result.
type benchRow struct {
	Name    string             `json:"name"`
	Pkg     string             `json:"pkg,omitempty"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// benchJSON is the BENCH_trace.json schema: parsed metrics for
// dashboards plus the raw benchmark lines, which remain benchstat
// input (jq -r '.raw[]' BENCH_trace.json | benchstat /dev/stdin).
type benchJSON struct {
	Schema     string     `json:"schema"`
	Go         string     `json:"go"`
	Benchmarks []benchRow `json:"benchmarks"`
	Raw        []string   `json:"raw"`
}

// benchJSONCmd converts `go test -bench` output on stdin into the
// repo's bench-trajectory JSON on stdout.
func benchJSONCmd(args []string) {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	fs.Parse(args)

	out := benchJSON{Schema: "whirlpool-bench/v1", Go: runtime.Version()}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		row := benchRow{Name: f[0], Pkg: pkg, Iters: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			row.Metrics[f[i+1]] = v
		}
		out.Benchmarks = append(out.Benchmarks, row)
		out.Raw = append(out.Raw, line)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(out.Benchmarks) == 0 {
		fatal(fmt.Errorf("benchjson: no benchmark lines on stdin (pipe `go test -bench` output in)"))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

// benchDeltaCmd compares two BENCH_trace.json snapshots and exits
// non-zero when any benchmark matching -match regressed by more than
// -max-regress percent on a guarded metric (ns/op and allocs/op). It is
// the core of scripts/bench-delta.sh, the CI guard that keeps the trace
// decode path from quietly slowing down.
func benchDeltaCmd(args []string) {
	fs := flag.NewFlagSet("benchdelta", flag.ExitOnError)
	match := fs.String("match", "FilterPrivate|TraceCursor|TraceCodec|TraceMmap", "regexp of guarded benchmark names")
	maxRegress := fs.Float64("max-regress", 20, "allowed regression in percent before failing")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fatal(fmt.Errorf("usage: whirltool benchdelta [-match RE] [-max-regress PCT] BASELINE.json CURRENT.json"))
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fatal(fmt.Errorf("benchdelta: bad -match: %w", err))
	}
	load := func(path string) map[string]map[string]float64 {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(fmt.Errorf("benchdelta: %w", err))
		}
		var doc benchJSON
		if err := json.Unmarshal(data, &doc); err != nil {
			fatal(fmt.Errorf("benchdelta: %s: %w", path, err))
		}
		m := map[string]map[string]float64{}
		for _, row := range doc.Benchmarks {
			// Strip the -N GOMAXPROCS suffix so snapshots from machines
			// with different core counts still line up.
			name := row.Name
			if i := strings.LastIndex(name, "-"); i > 0 {
				if _, err := strconv.Atoi(name[i+1:]); err == nil {
					name = name[:i]
				}
			}
			m[name] = row.Metrics
		}
		return m
	}
	base, cur := load(fs.Arg(0)), load(fs.Arg(1))
	guarded := []string{"ns/op", "allocs/op"}
	failed := false
	compared := 0
	for name, curMetrics := range cur {
		if !re.MatchString(name) {
			continue
		}
		baseMetrics, ok := base[name]
		if !ok {
			fmt.Printf("benchdelta: %-40s new benchmark, no baseline\n", name)
			continue
		}
		for _, metric := range guarded {
			b, c := baseMetrics[metric], curMetrics[metric]
			if b <= 0 {
				continue
			}
			compared++
			deltaPct := (c - b) / b * 100
			status := "ok"
			if deltaPct > *maxRegress {
				status = "REGRESSION"
				failed = true
			}
			fmt.Printf("benchdelta: %-40s %-10s %12.1f -> %12.1f  %+7.1f%%  %s\n",
				name, metric, b, c, deltaPct, status)
		}
	}
	if compared == 0 {
		fmt.Println("benchdelta: no guarded benchmarks in common; nothing to compare")
		return
	}
	if failed {
		fatal(fmt.Errorf("benchdelta: guarded benchmarks regressed more than %.0f%% (set BENCH_DELTA_SKIP=1 to bypass a known-noisy run)", *maxRegress))
	}
	fmt.Printf("benchdelta: %d guarded metrics within %.0f%% of baseline\n", compared, *maxRegress)
}
