// Phase-adaptation example: lbm alternates which of its two grids is hot
// every timestep (Sec 2.2, Fig 6). A static placement cannot help — the
// grids look identical on average — but Whirlpool's dynamic runtime
// re-sizes and re-places the pools every reconfiguration.
package main

import (
	"fmt"

	"whirlpool"
)

func main() {
	scale := whirlpool.WithScale(0.5)

	jig, err := whirlpool.New("lbm", whirlpool.Jigsaw, scale).Run()
	check(err)
	whl, err := whirlpool.New("lbm", whirlpool.Whirlpool, scale).Run()
	check(err)

	fmt.Printf("lbm: Whirlpool vs Jigsaw: %+.1f%% performance, %+.1f%% energy\n",
		100*(jig.Cycles/whl.Cycles-1), 100*(whl.EnergyPJ/jig.EnergyPJ-1))
	fmt.Println("paper (Sec 2.2): +4.8% performance, -12% data movement energy")

	// Show the alternating access pattern the runtime adapts to.
	out, err := whirlpool.Figure("fig6", &whirlpool.FigureOptions{Scale: 0.5})
	check(err)
	fmt.Println()
	fmt.Println(out)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
