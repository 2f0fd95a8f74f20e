package main

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"whirlpool/internal/stats"
)

// The gate's rule: a median ns/op or allocs/op regresses when it exceeds
// the base median by more than maxRegress and by more than the base's
// interquartile range, so a shift inside the base's own noise passes. A
// zero-alloc path that starts allocating fails at any size.
const maxRegress = 0.20

// benchSamples maps a benchmark, keyed "pkg.Name" with the -N
// GOMAXPROCS suffix stripped, to its samples per unit.
type benchSamples map[string]map[string][]float64

// parseBench reads raw `go test -bench` output (any number of rounds,
// any number of packages) into samples.
func parseBench(text string) (benchSamples, error) {
	out := benchSamples{}
	pkg := ""
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest) + "."
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			continue // not a result: the name, then whatever the benchmark printed
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 && strings.Trim(name[i+1:], "0123456789") == "" {
			name = name[:i]
		}
		units := out[pkg+name]
		if units == nil {
			units = map[string][]float64{}
			out[pkg+name] = units
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", f[i], line)
			}
			units[f[i+1]] = append(units[f[i+1]], v)
		}
	}
	return out, nil
}

// benchDelta is one guarded unit of one benchmark present on both sides.
type benchDelta struct {
	Name, Unit   string
	Base, Change float64 // medians
	BaseIQR      float64 // of the base samples
	Regressed    bool
}

// compareBench applies the gate's rule to every guarded unit of every
// benchmark on both sides, in name order. Benchmarks on one side only
// come back in oneSided, described; they never fail the gate.
func compareBench(base, change benchSamples) (deltas []benchDelta, oneSided []string) {
	all := maps.Clone(base)
	maps.Copy(all, change)
	for _, name := range slices.Sorted(maps.Keys(all)) {
		if base[name] == nil || change[name] == nil {
			side := "base"
			if base[name] == nil {
				side = "change"
			}
			oneSided = append(oneSided, name+" only in "+side)
			continue
		}
		for _, unit := range []string{"ns/op", "allocs/op"} {
			b, c := base[name][unit], change[name][unit]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			d := benchDelta{Name: name, Unit: unit, Base: stats.Percentile(b, 50), Change: stats.Percentile(c, 50),
				BaseIQR: stats.Percentile(b, 75) - stats.Percentile(b, 25)}
			d.Regressed = d.Change > d.Base &&
				(d.Base == 0 || d.Change > d.Base*(1+maxRegress) && d.Change-d.Base > d.BaseIQR)
			deltas = append(deltas, d)
		}
	}
	return deltas, oneSided
}

// benchDeltaCmd compares the raw benchmark output of a base and a
// change (scripts/bench-ab.sh writes both) and exits 1 when any
// guarded unit regressed.
func benchDeltaCmd(args []string) {
	if len(args) != 2 {
		fatal(fmt.Errorf("usage: whirltool benchdelta BASE.txt CHANGE.txt"))
	}
	var sides [2]benchSamples
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			sides[i], err = parseBench(string(data))
		}
		if err != nil {
			fatal(fmt.Errorf("benchdelta: %w", err))
		}
	}
	deltas, oneSided := compareBench(sides[0], sides[1])
	for _, s := range oneSided {
		fmt.Printf("benchdelta: %s (not compared)\n", s)
	}
	failed := 0
	for _, d := range deltas {
		status := "ok"
		if d.Regressed {
			status = "REGRESSION"
			failed++
		}
		pct := 0.0 // +Inf for a rise from 0
		if d.Change != d.Base {
			pct = (d.Change - d.Base) / d.Base * 100
		}
		fmt.Printf("benchdelta: %-62s %-9s %14.1f -> %14.1f  %+7.1f%%  (base IQR %.1f)  %s\n",
			d.Name, d.Unit, d.Base, d.Change, pct, d.BaseIQR, status)
	}
	if len(deltas) == 0 {
		fatal(fmt.Errorf("benchdelta: no benchmark on both sides; nothing to compare"))
	}
	if failed > 0 {
		fatal(fmt.Errorf("benchdelta: %d of %d medians regressed: up from 0, or by more than %.0f%% and the base's IQR",
			failed, len(deltas), maxRegress*100))
	}
	fmt.Printf("benchdelta: %d medians within %.0f%% or the base's IQR\n", len(deltas), maxRegress*100)
}
