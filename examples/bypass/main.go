// Bypass case study: mis (maximal independent set) has a cache-friendly
// vertices pool and a streaming edges pool. Whirlpool's static
// classification lets the runtime bypass edges entirely while giving the
// cache to vertices (Sec 3.3, Figs 9-10). This example shows the bypass
// happening and its energy effect, and uses WhirlTool to discover the
// same pools automatically.
package main

import (
	"fmt"

	"whirlpool"
)

func main() {
	scale := whirlpool.WithScale(0.5)

	jig, err := whirlpool.New("MIS", whirlpool.Jigsaw, scale).Run()
	check(err)
	whl, err := whirlpool.New("MIS", whirlpool.Whirlpool, scale).Run()
	check(err)

	fmt.Println("mis under Jigsaw vs Whirlpool:")
	for _, r := range []whirlpool.Report{jig, whl} {
		fmt.Printf("%-10s cycles=%.1fM  LLC accesses=%d  bypassed=%d (%.0f%%)  energy=%.2fmJ\n",
			r.Scheme, r.Cycles/1e6, r.LLCAccesses, r.Bypasses,
			100*float64(r.Bypasses)/float64(r.LLCAccesses), r.EnergyPJ/1e9)
	}
	fmt.Printf("\nWhirlpool vs Jigsaw: %+.1f%% performance, %+.1f%% energy\n",
		100*(jig.Cycles/whl.Cycles-1), 100*(whl.EnergyPJ/jig.EnergyPJ-1))
	fmt.Println("paper (Sec 3.3): +38% performance, -53% data movement energy")

	// The same classification, discovered automatically.
	pools, err := whirlpool.New("MIS", whirlpool.Whirlpool, scale).Classify(2)
	check(err)
	fmt.Println("\nWhirlTool's automatic 2-pool classification:")
	for i, g := range pools {
		fmt.Printf("  pool %d: %v\n", i+1, g)
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
