// PaWS example: pagerank on the 16-core chip (Sec 3.4, Fig 13).
//
// Conventional work-stealing scatters every partition's data across all
// cores, so neither private caches nor NUCA placement can help. PaWS
// partitions the input graph (our METIS-substitute partitioner), runs
// tasks on the core owning their data, steals from neighbors first —
// and Whirlpool maps each partition to a pool so its VC lands next to
// its cores.
package main

import (
	"fmt"

	"whirlpool"
)

func main() {
	variants := []whirlpool.ParallelVariant{
		whirlpool.ParSNUCA,
		whirlpool.ParJigsaw,
		whirlpool.ParJigsawPaWS,
		whirlpool.ParWhirlpoolPaWS,
	}
	fmt.Println("pagerank on 16 cores (RMAT graph, 16 partitions):")
	var base whirlpool.Report
	for i, v := range variants {
		r, err := whirlpool.RunParallel("pagerank", v)
		if err != nil {
			panic(err)
		}
		if i == 0 {
			base = r
		}
		fmt.Printf("%-16s cycles=%.1fM (%.3fx)  energy=%.2fmJ (%.3fx)\n",
			v, r.Cycles/1e6, r.Cycles/base.Cycles,
			r.EnergyPJ/1e9, r.EnergyPJ/base.EnergyPJ)
	}
	fmt.Println("\npaper (Fig 13d): J+PaWS improves moderately; W+PaWS gives the big step")
}
