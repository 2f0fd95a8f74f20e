// Package jigsaw implements the paper's baseline D-NUCA substrate and the
// Whirlpool extensions on top of it:
//
//   - Virtual caches (VCs) built from bank partitions, located in a single
//     lookup through VTB entries (configurable hashes over per-bank shares).
//   - Runtime GMON monitors per VC.
//   - A periodic reconfiguration runtime that sizes VCs with total-latency
//     curves (not just miss curves) and places them with the greedy+trading
//     placement algorithm.
//   - Whirlpool: one VC per memory pool and VC bypassing.
package jigsaw

import (
	"sort"

	"whirlpool/internal/addr"
	"whirlpool/internal/cache"
	"whirlpool/internal/llc"
	"whirlpool/internal/mon"
	"whirlpool/internal/noc"
	"whirlpool/internal/stats"
)

// VC is one virtual cache: a monitor, a capacity-managed store modeling
// its partition, and a VTB entry (bank shares + prefix table) giving every
// line a unique bank in a single lookup.
type VC struct {
	Key llc.VCKey
	Mon *mon.Monitor

	// Store models the partition's hit/miss behaviour at its allocated
	// capacity (Vantage keeps partitions at exactly their allocation).
	Store *cache.CapLRU

	// Shares[b] is the number of lines of bank b allocated to this VC.
	Shares []uint64
	prefix []uint64 // cumulative shares over banks with Shares[b] > 0
	pbanks []int    // bank ids matching prefix entries
	total  uint64

	// Bypassed VCs have no LLC allocation; their accesses go straight to
	// memory (Whirlpool's VC bypassing).
	Bypassed bool
	// age counts reconfigurations this VC has lived through; bypass
	// decisions wait for warm monitor state (see sizeVCs).
	age int

	// Placement inputs, refreshed each reconfiguration.
	coreW    []float64 // per-core access weights (centroid)
	hops     []float64 // weighted hops to each bank
	distRank []int     // banks sorted by weighted distance
	// accSum and missSum are prefix sums over distRank (latencySums).
	accSum, missSum []float64

	// Interval bookkeeping.
	lastAccesses uint64 // accesses in the interval that just closed
	allocLines   uint64
}

// newVC creates a VC with a provisional allocation near its owner: two
// banks' worth of capacity in the closest banks. The first reconfiguration
// replaces this.
func newVC(key llc.VCKey, chip *noc.Chip, gran uint64) *VC {
	nb := chip.NBanks()
	v := &VC{
		Key:    key,
		Mon:    mon.New(gran, chip.TotalLines(), chip.NCores()),
		Shares: make([]uint64, nb),
		coreW:  make([]float64, chip.NCores()),
		hops:   make([]float64, nb),
	}
	// Initial centroid: the owner core, or the chip center when shared.
	if key.Core >= 0 {
		v.coreW[key.Core] = 1
	} else {
		for c := range v.coreW {
			v.coreW[c] = 1
		}
	}
	v.recomputeDistances(chip)
	initial := 2 * chip.BankLines()
	v.Store = cache.NewCapLRU(int(initial))
	left := initial
	for _, b := range v.distRank {
		take := left
		if take > chip.BankLines() {
			take = chip.BankLines()
		}
		v.Shares[b] = take
		left -= take
		if left == 0 {
			break
		}
	}
	v.rebuildPrefix()
	v.allocLines = initial
	return v
}

// recomputeDistances refreshes the weighted bank distances from the
// current per-core access weights.
func (v *VC) recomputeDistances(chip *noc.Chip) {
	m := chip.Mesh
	var wsum float64
	for _, w := range v.coreW {
		wsum += w
	}
	if wsum == 0 {
		wsum = 1
	}
	nb := chip.NBanks()
	if v.distRank == nil {
		v.distRank = make([]int, nb)
	}
	for b := 0; b < nb; b++ {
		h := 0.0
		for c, w := range v.coreW {
			if w > 0 {
				h += w * float64(m.CoreBankHops(c, b))
			}
		}
		v.hops[b] = h / wsum
		v.distRank[b] = b
	}
	// Sort by *quantized* distance with a bank-id tiebreak: tiny interval-
	// to-interval drifts in the access centroid must not reshuffle
	// equidistant banks, or every reconfiguration would migrate data for
	// no benefit.
	q := func(h float64) int { return int(h*4 + 0.5) }
	sort.Slice(v.distRank, func(i, j int) bool {
		bi, bj := v.distRank[i], v.distRank[j]
		qi, qj := q(v.hops[bi]), q(v.hops[bj])
		if qi != qj {
			return qi < qj
		}
		return bi < bj
	})
}

// latencySums refreshes accSum and missSum from distRank: accSum[k] is
// the round-trip network latency summed over the k closest banks, and
// missSum[k] the bank-to-controller round trip over the same banks.
// Each sum adds its terms in rank order, so a bucket's average reads
// the same float64 a per-bucket loop over the closest banks would.
func (v *VC) latencySums(chip *noc.Chip) {
	m := chip.Mesh
	v.accSum = append(v.accSum[:0], 0)
	v.missSum = append(v.missSum[:0], 0)
	for i, b := range v.distRank {
		v.accSum = append(v.accSum, v.accSum[i]+float64(2*noc.HopLatency(int(v.hops[b]+0.5))))
		v.missSum = append(v.missSum, v.missSum[i]+float64(2*noc.HopLatency(m.BankMemHops(b))))
	}
}

// closestBanks is how many of the closest banks `lines` of capacity
// spans, at most every bank.
func (v *VC) closestBanks(chip *noc.Chip, lines uint64) int {
	bankLines := chip.BankLines()
	return min(int((lines+bankLines-1)/bankLines), len(v.distRank))
}

// avgAccessLatency returns the average round-trip network+bank latency if
// this VC were allocated `lines` of capacity spread over its closest
// banks — the access-latency term of Jigsaw's total-latency curves. It
// reads the sums of the last latencySums.
func (v *VC) avgAccessLatency(chip *noc.Chip, lines uint64) float64 {
	if lines == 0 {
		return float64(noc.BankLatency)
	}
	n := v.closestBanks(chip, lines)
	return v.accSum[n]/float64(n) + float64(noc.BankLatency)
}

// avgMissPenalty returns the average miss cost if the VC occupied `lines`
// of capacity in its closest banks: memory latency plus the bank-to-
// controller round trip of those banks. Using the same banks as
// avgAccessLatency keeps the sizing model consistent with the bypass
// alternative. It reads the sums of the last latencySums.
func (v *VC) avgMissPenalty(chip *noc.Chip, lines uint64) float64 {
	n := max(v.closestBanks(chip, lines), 1)
	return noc.MemLatency + v.missSum[n]/float64(n)
}

// rebuildPrefix rebuilds the VTB hash table from Shares.
func (v *VC) rebuildPrefix() {
	v.prefix = v.prefix[:0]
	v.pbanks = v.pbanks[:0]
	var cum uint64
	for b, s := range v.Shares {
		if s == 0 {
			continue
		}
		cum += s
		v.prefix = append(v.prefix, cum)
		v.pbanks = append(v.pbanks, b)
	}
	v.total = cum
}

// Bank returns the bank holding line l: the single-lookup VTB hash. Each
// line maps to exactly one bank, proportionally to bank shares.
func (v *VC) Bank(l addr.Line) int {
	if v.total == 0 {
		// No allocation (transient); use the closest bank.
		return v.distRank[0]
	}
	h := stats.Hash64(uint64(l)) % v.total
	// Binary search the cumulative share table.
	lo, hi := 0, len(v.prefix)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if h < v.prefix[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return v.pbanks[lo]
}

// TotalShare returns the VC's current allocation in lines.
func (v *VC) TotalShare() uint64 { return v.total }

// Intensity returns last-interval accesses per allocated line — the
// quantity the trading placement algorithm ranks VCs by ("APKI per MB").
func (v *VC) Intensity() float64 {
	if v.allocLines == 0 {
		return float64(v.lastAccesses)
	}
	return float64(v.lastAccesses) / float64(v.allocLines)
}
