// Command whirlvet runs the repo's static-analysis suite: five
// analyzers encoding invariants the codebase documents but `go vet`
// cannot check — determinism of the compute path, zero-alloc hot
// paths, envelope-only API errors, grep-able log keys, and
// mutex-guarded registries. Every analyzer runs over the given package
// patterns (default ./...) and each finding prints as a go-vet-style
// file:line:col line. See docs/lint.md for the catalog and the marker
// comments (//whirl:wallclock, //whirl:zeroalloc, ...).
//
// Usage:
//
//	whirlvet ./...     # the whole module (what make lint runs)
//	whirlvet -list     # the analyzers and what each checks
//
// Exit status: 0 clean, 1 findings, 2 usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"whirlpool/internal/cliutil"
	"whirlpool/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	version := cliutil.VersionFlag()
	flag.Parse()
	cliutil.HandleVersion("whirlvet", *version)

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	res, err := lint.Run(lint.Config{Patterns: flag.Args()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "whirlvet:", err)
		os.Exit(2)
	}
	lint.WriteText(os.Stdout, res.Findings)
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "whirlvet: %d finding(s) in %d package(s)\n", len(res.Findings), res.Packages)
		os.Exit(1)
	}
}
