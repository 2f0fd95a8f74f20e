// Command whirltool bundles the workload tooling around the simulator:
// WhirlTool's profile-guided classification (the default mode), the
// .wtrc trace record/replay toolchain, and the micro-benchmark A/B
// comparator behind scripts/bench-ab.sh.
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
//	whirltool benchdelta base.txt change.txt       # make bench-ab's verdict
//
// Recorded traces replay through every scheme, sweep, and figure via a
// "trace"-sourced spec app (docs/workload-specs.md).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

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
	checked, err := experiments.CheckScale(*scale)
	if err != nil {
		fatal(err)
	}
	h := experiments.NewHarness(checked)
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
