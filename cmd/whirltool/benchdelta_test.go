package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// rounds renders one benchmark's samples as raw `go test -bench`
// output, one round per ns/op value, under a pkg header.
func rounds(name string, nsPerOp []float64, allocs int) string {
	var b strings.Builder
	for _, ns := range nsPerOp {
		fmt.Fprintf(&b, "pkg: whirlpool/internal/trace\n%s-2   \t     100\t  %.0f ns/op\t   64 B/op\t       %d allocs/op\nPASS\n", name, ns, allocs)
	}
	return b.String()
}

func TestParseBench(t *testing.T) {
	in := "goos: linux\npkg: whirlpool/internal/cache\ncpu: x\n" +
		"BenchmarkCapLRUAccess-2   \t 1000\t  125.5 ns/op\t  0 B/op\t  0 allocs/op\n" +
		"BenchmarkCapLRUAccess-2   \t 1000\t  130.5 ns/op\t  0 B/op\t  0 allocs/op\n" +
		"BenchmarkLLC/jigsaw-16 \t 10\t 9 ns/op\n" +
		"BenchmarkNoProcs \t 10\t 7 ns/op\n" +
		"--- FAIL: BenchmarkBroken\nPASS\nok  \twhirlpool/internal/cache\t1.2s\n"
	got, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	want := benchSamples{
		"whirlpool/internal/cache.BenchmarkCapLRUAccess": {"ns/op": {125.5, 130.5}, "B/op": {0, 0}, "allocs/op": {0, 0}},
		"whirlpool/internal/cache.BenchmarkLLC/jigsaw":   {"ns/op": {9}},
		"whirlpool/internal/cache.BenchmarkNoProcs":      {"ns/op": {7}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBench:\n got %v\nwant %v", got, want)
	}
	if _, err := parseBench("BenchmarkX-2 \t 10\t fast ns/op\n"); err == nil {
		t.Fatal("parseBench accepted a non-numeric value")
	}
}

func TestCompareBench(t *testing.T) {
	base := []float64{100, 90, 110, 95, 105, 100} // median 100, IQR 7.5
	b, err := parseBench(rounds("BenchmarkA", base, 3))
	if err != nil {
		t.Fatal(err)
	}
	if deltas, _ := compareBench(b, b); deltas[0].Unit != "ns/op" || deltas[0].Base != 100 || deltas[0].BaseIQR != 7.5 {
		t.Fatalf("base ns/op delta %+v, want median 100 and IQR 7.5", deltas[0])
	}
	shifted := func(by float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + by
		}
		return out
	}
	cases := []struct {
		name         string
		base, change string
		regressed    []string // "Name unit" of each regressed delta
		oneSided     []string
	}{
		{
			name:   "identical",
			base:   rounds("BenchmarkA", base, 3),
			change: rounds("BenchmarkA", base, 3),
		},
		{
			name:   "uniform shift within the base IQR",
			base:   rounds("BenchmarkA", base, 3),
			change: rounds("BenchmarkA", shifted(7), 3),
		},
		{
			name:   "noisy base: 30% slower but inside the IQR",
			base:   rounds("BenchmarkA", []float64{50, 60, 100, 100, 160, 170}, 3),
			change: rounds("BenchmarkA", []float64{80, 90, 130, 130, 190, 200}, 3),
		},
		{
			name:      "shift beyond 20% and the IQR",
			base:      rounds("BenchmarkA", base, 3),
			change:    rounds("BenchmarkA", shifted(25), 3),
			regressed: []string{"whirlpool/internal/trace.BenchmarkA ns/op"},
		},
		{
			name:   "beyond the IQR but within 20%",
			base:   rounds("BenchmarkA", base, 3),
			change: rounds("BenchmarkA", shifted(15), 3),
		},
		{
			name:      "allocs/op from 0 to 1",
			base:      rounds("BenchmarkA", base, 0),
			change:    rounds("BenchmarkA", base, 1),
			regressed: []string{"whirlpool/internal/trace.BenchmarkA allocs/op"},
		},
		{
			name:   "faster is never a regression",
			base:   rounds("BenchmarkA", shifted(50), 4),
			change: rounds("BenchmarkA", base, 1),
		},
		{
			name:     "one side only",
			base:     rounds("BenchmarkA", base, 3) + rounds("BenchmarkGone", base, 3),
			change:   rounds("BenchmarkA", base, 3) + rounds("BenchmarkNew", shifted(900), 9),
			oneSided: []string{"whirlpool/internal/trace.BenchmarkGone only in base", "whirlpool/internal/trace.BenchmarkNew only in change"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := parseBench(tc.base)
			if err != nil {
				t.Fatal(err)
			}
			c, err := parseBench(tc.change)
			if err != nil {
				t.Fatal(err)
			}
			deltas, oneSided := compareBench(b, c)
			if len(deltas) != 2 {
				t.Fatalf("compared %d units, want ns/op and allocs/op of BenchmarkA: %+v", len(deltas), deltas)
			}
			var regressed []string
			for _, d := range deltas {
				if d.Regressed {
					regressed = append(regressed, d.Name+" "+d.Unit)
				}
			}
			if !reflect.DeepEqual(regressed, tc.regressed) {
				t.Errorf("regressed %v, want %v (deltas %+v)", regressed, tc.regressed, deltas)
			}
			if !reflect.DeepEqual(oneSided, tc.oneSided) {
				t.Errorf("one-sided %v, want %v", oneSided, tc.oneSided)
			}
		})
	}
}
