// Command whirlbench regenerates the paper's tables and figures.
//
// Usage:
//
//	whirlbench -fig fig21              # the overall comparison
//	whirlbench -fig fig22 -mixes 8     # mixes, fewer samples
//	whirlbench -fig all -scale 0.25    # everything, faster
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"whirlpool"
	"whirlpool/internal/cliutil"
)

func main() {
	fig := flag.String("fig", "", "figure/table id, or 'all' (see -listfigs)")
	scale := flag.Float64("scale", 1.0, "workload length multiplier")
	seed := flag.Uint64("seed", 0, "workload generation seed (0 = the published default)")
	mixes := flag.Int("mixes", 20, "number of mixes for fig22")
	apps := flag.String("apps", "", "comma-separated app subset for suite figures")
	traceCache := flag.String("trace-cache", "", cliutil.TraceCacheUsage)
	listFigs := flag.Bool("listfigs", false, "list figure ids and exit")
	version := cliutil.VersionFlag()
	flag.Parse()
	cliutil.HandleVersion("whirlbench", *version)

	if dir, err := cliutil.ResolveTraceCacheDir(*traceCache); err != nil {
		fmt.Fprintln(os.Stderr, "whirlbench:", err)
		os.Exit(1)
	} else if dir != "" {
		whirlpool.SetTraceCacheDir(dir)
	}

	if *listFigs || *fig == "" {
		fmt.Println("figures:", strings.Join(whirlpool.Figures(), " "))
		return
	}
	opt := &whirlpool.FigureOptions{Scale: *scale, Mixes: *mixes, Seed: *seed}
	if *apps != "" {
		// Non-nil even when the list holds only separators, so Figure
		// rejects it instead of running the full suite.
		opt.Apps = append([]string{}, cliutil.SplitList(*apps)...)
	}
	ids := []string{*fig}
	if *fig == "all" {
		ids = whirlpool.Figures()
	}
	for _, id := range ids {
		out, err := whirlpool.Figure(id, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whirlbench:", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
}
