// Command whirlsweep fans an app × scheme grid out across a worker pool
// and emits machine-readable results. Apps come from the built-in suite
// and/or declarative spec files; each app's trace is generated and
// private-filtered once, then shared by every scheme's run, so a full
// sweep costs far less than the equivalent serial whirlsim invocations.
//
// Usage:
//
//	whirlsweep -apps delaunay,MIS,mcf                    # 3 apps × 6 schemes
//	whirlsweep -apps all -schemes jigsaw,whirlpool -format csv -o out.csv
//	whirlsweep -spec specs/multitenant-kv.json -mix all  # sweep the file's mixes
//	whirlsweep -apps all -store auto                     # memoize rows; warm cells skip simulation
//	whirlsweep -dump-builtin > specs/builtin.json        # export the suite
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"whirlpool/internal/cliutil"
	"whirlpool/internal/experiments"
	"whirlpool/internal/results"
	"whirlpool/internal/schemes"
	"whirlpool/internal/spec"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "whirlsweep:", err)
	os.Exit(1)
}

func main() {
	appsFlag := flag.String("apps", "", "comma-separated apps, or 'all' (default: apps from -spec files, else all)")
	schemesFlag := flag.String("schemes", "all", "comma-separated schemes, or 'all' (valid: "+strings.Join(schemes.KindIDs(), ", ")+")")
	specFiles := flag.String("spec", "", "comma-separated workload-spec files to load")
	mixFlag := flag.String("mix", "", "comma-separated mix names from -spec files, or 'all'")
	scale := flag.Float64("scale", 1.0, "workload length multiplier")
	seed := flag.Uint64("seed", 0, "workload generation seed (0 = the published default)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation workers")
	format := flag.String("format", "table", "output format: table, csv, or json")
	out := flag.String("o", "", "write results to this file (default: stdout)")
	noBypass := flag.Bool("nobypass", false, "disable VC bypassing in every run (ablation)")
	traceCache := flag.String("trace-cache", "", cliutil.TraceCacheUsage)
	storeFlag := flag.String("store", "", cliutil.StoreUsage)
	quiet := flag.Bool("q", false, "suppress progress output on stderr")
	dumpBuiltin := flag.Bool("dump-builtin", false, "print the built-in suite as a spec file and exit")
	version := cliutil.VersionFlag()
	flag.Parse()
	cliutil.HandleVersion("whirlsweep", *version)

	if *dumpBuiltin {
		data, err := spec.Encode(spec.Builtin())
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}

	h, cfg, files, err := resolveGrid(*appsFlag, *mixFlag, *schemesFlag, *specFiles, *scale)
	if err != nil {
		fatal(err)
	}
	for _, f := range files {
		if _, err := f.Register(); err != nil {
			fatal(err)
		}
	}
	cfg.Workers = *workers
	cfg.NoBypass = *noBypass

	switch *format {
	case "table", "csv", "json":
	default:
		fatal(fmt.Errorf("unknown format %q (valid: table, csv, json)", *format))
	}

	if !*quiet {
		cfg.OnRow = func(done, total int, row experiments.SweepRow) {
			status := fmt.Sprintf("%.1fms", row.WallMS)
			if row.Err != "" {
				status = "ERROR: " + row.Err
			}
			fmt.Fprintf(os.Stderr, "whirlsweep: [%d/%d] %s/%s %s\n", done, total, row.App, row.Scheme, status)
		}
	}

	// Ctrl-C / SIGTERM cancel the sweep: in-flight cells finish, the
	// rest are skipped, and completed rows are still written out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.Context = ctx

	if *seed != 0 {
		h.Seed = *seed
	}
	cacheDir, err := cliutil.ResolveTraceCacheDir(*traceCache)
	if err != nil {
		fatal(err)
	}
	h.CacheDir = cacheDir
	storeDir, err := cliutil.ResolveStoreDir(*storeFlag)
	if err != nil {
		fatal(err)
	}
	var store *results.Store
	var sweepStats experiments.SweepStats
	if storeDir != "" {
		store, err = results.Open(storeDir)
		if err != nil {
			fatal(err)
		}
		defer store.Close()
		cfg.Store = store
		cfg.Stats = &sweepStats
	}
	start := time.Now()
	rows, sweepErr := h.Sweep(cfg)
	if store != nil && !*quiet {
		fmt.Fprintf(os.Stderr, "whirlsweep: results: %d served from %s, %d computed\n",
			sweepStats.Served, storeDir, sweepStats.Computed)
	}
	if cacheDir != "" && !*quiet {
		s := h.CacheStats()
		fmt.Fprintf(os.Stderr, "whirlsweep: traces: %d generated, %d streamed from %s\n",
			s.Builds, s.DiskHits, cacheDir)
		if s.WriteErrors > 0 {
			fmt.Fprintf(os.Stderr, "whirlsweep: warning: %d trace cache write(s) failed; those traces stayed uncached\n",
				s.WriteErrors)
		}
	}
	if sweepErr != nil && len(rows) == 0 {
		fatal(sweepErr)
	}
	if sweepErr != nil {
		// Canceled mid-sweep: keep only the cells that finished.
		var completed []experiments.SweepRow
		for _, r := range rows {
			if r.Err != "canceled" {
				completed = append(completed, r)
			}
		}
		rows = completed
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "whirlsweep: %d cells in %.1fs with %d workers\n",
			len(rows), time.Since(start).Seconds(), *workers)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	// *format was validated before the sweep ran.
	var writeErr error
	switch *format {
	case "table":
		writeErr = experiments.WriteRowsTable(w, rows)
	case "csv":
		writeErr = experiments.WriteRowsCSV(w, rows)
	case "json":
		writeErr = experiments.WriteRowsJSON(w, rows)
	}
	if writeErr != nil {
		fatal(writeErr)
	}

	// A sweep that ran but produced failed cells, or was canceled before
	// finishing, should not look green to CI pipelines consuming the
	// output.
	if sweepErr != nil {
		fatal(sweepErr)
	}
	for _, r := range rows {
		if r.Err != "" {
			fatal(fmt.Errorf("%d of %d cells failed (first: %s/%s: %s)",
				countErrs(rows), len(rows), r.App, r.Scheme, r.Err))
		}
	}
}

// resolveGrid loads the -spec files and resolves the grid flags
// against them with the resolver whirld runs on every POST /v1/sweeps
// body, returning a harness at the checked scale and the grid. The
// files come back unregistered, as whirld holds an inline spec until
// its job runs: their apps count as known, and their mixes are
// sweepable by name.
func resolveGrid(apps, mixes, schemeList, specFiles string, scale float64) (*experiments.Harness, experiments.SweepConfig, []*spec.File, error) {
	var files []*spec.File
	for _, path := range cliutil.SplitList(specFiles) {
		f, err := spec.Load(path)
		if err != nil {
			return nil, experiments.SweepConfig{}, nil, err
		}
		files = append(files, f)
	}
	grid, _, err := experiments.ResolveGrid(experiments.GridRequest{
		Apps:    cliutil.SplitList(apps),
		Mixes:   cliutil.SplitList(mixes),
		Schemes: cliutil.SplitList(schemeList),
		Specs:   files,
		Scale:   scale,
	})
	if err != nil {
		return nil, experiments.SweepConfig{}, nil, err
	}
	return experiments.NewHarness(grid.Scale), grid.Config, files, nil
}

func countErrs(rows []experiments.SweepRow) int {
	n := 0
	for _, r := range rows {
		if r.Err != "" {
			n++
		}
	}
	return n
}
