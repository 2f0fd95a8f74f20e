package jigsaw

import (
	"math"
	"sort"

	"whirlpool/internal/mrc"
	"whirlpool/internal/noc"
)

// sizing and placement: the OS runtime that fires every reconfiguration
// interval (25ms in the paper; scaled in simulation — see docs/design.md).

// bypassLatency is the per-access cost of a bypassed VC: straight to
// memory from the core, with no bank lookup.
func bypassLatency(chip *noc.Chip, v *VC) float64 {
	m := chip.Mesh
	if v.Key.Core >= 0 {
		return noc.MemLatency + float64(2*noc.HopLatency(m.CoreMemHops(int(v.Key.Core))))
	}
	sum := 0.0
	for c := 0; c < chip.NCores(); c++ {
		sum += float64(2 * noc.HopLatency(m.CoreMemHops(c)))
	}
	return noc.MemLatency + sum/float64(chip.NCores())
}

// latencyCurve builds the VC's total-latency curve: access-latency term
// plus miss-latency term, per interval (Sec 2.4). Index i is capacity
// i*gran lines. If missOnly is set (ablation), the curve is just misses.
func latencyCurve(chip *noc.Chip, v *VC, curve mrc.Curve, bypassable, missOnly bool) []float64 {
	n := curve.Buckets()
	out := make([]float64, n+1)
	a := float64(v.Mon.Accesses)
	if !missOnly {
		v.latencySums(chip)
	}
	for i := 0; i <= n; i++ {
		if missOnly {
			out[i] = curve.M[i]
			continue
		}
		lines := uint64(i) * curve.Gran
		if i == 0 {
			if bypassable {
				// Bypassing skips the LLC entirely: no bank access
				// latency on any access (the Sec 3.2/3.3 change that
				// makes the partitioner bypass-aware).
				out[0] = a * bypassLatency(chip, v)
			} else {
				// Zero capacity but the bank must still be checked;
				// effectively everything misses after a wasted lookup.
				out[0] = a*v.avgAccessLatency(chip, chip.BankLines()) +
					curve.M[0]*v.avgMissPenalty(chip, chip.BankLines())
			}
			continue
		}
		out[i] = a*v.avgAccessLatency(chip, lines) + curve.M[i]*v.avgMissPenalty(chip, lines)
	}
	return out
}

// convexify replaces curve with its lower convex envelope so greedy
// marginal allocation is optimal.
func convexify(l []float64) []float64 {
	c := mrc.Curve{Gran: 1, M: append([]float64(nil), l...)}
	// Latency curves need not be monotone (far banks can hurt);
	// convex-hull of the raw curve still yields the achievable envelope.
	h := c.ConvexHull()
	return h.M
}

// allocation is the sizing decision for one VC.
type allocation struct {
	vc      *VC
	raw     []float64 // total-latency curve
	curve   []float64 // convexified total-latency curve
	buckets int       // chosen size in curve buckets
	bypass  bool
}

// bypassMargin requires bypassing to beat the best cached configuration
// before committing: sampled monitor curves are noisy, and a spurious
// bypass flip invalidates the whole VC. The margin is thin because
// bypassing's latency edge over caching-with-all-misses is itself thin
// (the bank lookup); the age gate provides cold-start stability.
const bypassMargin = 0.98

// bypassWarmupAge is how many reconfigurations a VC must live through
// before it may be bypassed (cold first-interval curves make everything
// look like streaming).
const bypassWarmupAge = 2

// sizeVCs partitions LLC capacity among VCs by greedy marginal-gain
// allocation over convex latency curves. Capacity is left unallocated when
// extra banks would not reduce total latency (how dt ends up using half
// the chip). Returns the chosen allocations.
func sizeVCs(chip *noc.Chip, vcs []*VC, gran uint64, bypassEnabled, missOnly bool) []allocation {
	totalBuckets := int(chip.TotalLines() / gran)
	allocs := make([]allocation, len(vcs))
	for i, v := range vcs {
		curve := v.Mon.Curve()
		bypassable := bypassEnabled && v.Key.Core >= 0 && v.age >= bypassWarmupAge
		lc := latencyCurve(chip, v, curve, bypassable, missOnly)
		allocs[i] = allocation{vc: v, raw: lc, curve: convexify(lc), bypass: bypassable}
		if !bypassable {
			// Non-bypassable VCs must keep at least one bucket.
			allocs[i].buckets = 1
			totalBuckets--
		}
		v.age++
	}
	if totalBuckets < 0 {
		totalBuckets = 0
	}
	// Greedy: hand out buckets to the best marginal gain until gains dry
	// up or capacity runs out. V and B are small (≤ ~20 VCs, ~100-300
	// buckets), so the O(V·B) loop is fine.
	for totalBuckets > 0 {
		best, bestGain := -1, 0.0
		for i := range allocs {
			a := &allocs[i]
			if a.buckets >= len(a.curve)-1 {
				continue
			}
			gain := a.curve[a.buckets] - a.curve[a.buckets+1]
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break // no VC benefits from more capacity
		}
		allocs[best].buckets++
		totalBuckets--
	}
	// Bypass hysteresis: only commit to 0 buckets when bypassing beats
	// the best cached configuration by a margin; otherwise grant a
	// single bucket if any remain.
	for i := range allocs {
		a := &allocs[i]
		if !a.bypass || a.buckets > 0 {
			continue
		}
		cachedBest := a.raw[1]
		for _, v := range a.raw[1:] {
			if v < cachedBest {
				cachedBest = v
			}
		}
		if a.raw[0] >= bypassMargin*cachedBest && totalBuckets > 0 {
			a.buckets = 1
			totalBuckets--
		}
	}
	// Shrink dead-band: sampled curves jitter allocations by a bucket
	// between intervals, and every one-bucket shrink costs resize
	// evictions that re-miss. Suppress single-bucket shrinks (growth is
	// free, so it always passes — allocations converge upward).
	for i := range allocs {
		a := &allocs[i]
		prev := int(a.vc.allocLines / gran)
		if a.buckets == 0 || prev == 0 {
			continue
		}
		if a.buckets == prev-1 && totalBuckets > 0 {
			a.buckets = prev
			totalBuckets--
		}
	}
	return allocs
}

// placeVCs assigns each VC's capacity to banks: greedy placement in
// intensity order, then the trading pass that exchanges capacity between
// VCs (and free space) whenever that reduces intensity-weighted distance.
func placeVCs(chip *noc.Chip, allocs []allocation, gran uint64, trading bool) {
	bankLines := chip.BankLines()
	free := make([]uint64, chip.NBanks())
	for b := range free {
		free[b] = bankLines
	}
	// Intensity order: most intensely accessed VCs get the closest banks.
	order := make([]int, len(allocs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		ax, ay := &allocs[order[x]], &allocs[order[y]]
		ix := intensityOf(ax, gran)
		iy := intensityOf(ay, gran)
		if ix != iy {
			return ix > iy
		}
		return order[x] < order[y]
	})
	for _, i := range order {
		a := &allocs[i]
		v := a.vc
		for b := range v.Shares {
			v.Shares[b] = 0
		}
		need := uint64(a.buckets) * gran
		v.allocLines = need
		for _, b := range v.distRank {
			if need == 0 {
				break
			}
			take := need
			if take > free[b] {
				take = free[b]
			}
			if take == 0 {
				continue
			}
			v.Shares[b] = take
			free[b] -= take
			need -= take
		}
	}
	if trading {
		tradeCapacity(chip, allocs, free, gran)
	}
	for i := range allocs {
		allocs[i].vc.rebuildPrefix()
	}
}

func intensityOf(a *allocation, gran uint64) float64 {
	lines := uint64(a.buckets) * gran
	if lines == 0 {
		return math.Inf(1)
	}
	return float64(a.vc.Mon.Accesses) / float64(lines)
}

// tradeCapacity runs bounded improvement rounds: each VC tries to move its
// worst-placed capacity into free space or trade it with another VC when
// the swap reduces total intensity-weighted hops.
func tradeCapacity(chip *noc.Chip, allocs []allocation, free []uint64, gran uint64) {
	const maxRounds = 24
	for round := 0; round < maxRounds; round++ {
		improved := false
		for i := range allocs {
			u := &allocs[i]
			uv := u.vc
			iu := intensityOf(u, gran)
			if math.IsInf(iu, 1) || uv.TotalLinesHeld() == 0 {
				continue
			}
			// u's worst-held bank.
			bw := worstBank(uv)
			if bw < 0 {
				continue
			}
			// 1) Unilateral move into free space in a closer bank.
			for _, b := range uv.distRank {
				if uv.hops[b] >= uv.hops[bw] {
					break
				}
				if free[b] == 0 {
					continue
				}
				delta := uv.Shares[bw]
				if delta > free[b] {
					delta = free[b]
				}
				uv.Shares[bw] -= delta
				uv.Shares[b] += delta
				free[b] -= delta
				free[bw] += delta
				improved = true
				bw = worstBank(uv)
				if bw < 0 {
					break
				}
			}
			if bw < 0 {
				continue
			}
			// 2) Trade with another VC holding capacity closer to u.
			for j := range allocs {
				if j == i {
					continue
				}
				w := &allocs[j]
				wv := w.vc
				iw := intensityOf(w, gran)
				if math.IsInf(iw, 1) {
					continue
				}
				for _, b := range uv.distRank {
					if uv.hops[b] >= uv.hops[bw] {
						break
					}
					if wv.Shares[b] == 0 {
						continue
					}
					// Gain of swapping δ lines of u@bw with w@b:
					// u moves bw→b, w moves b→bw.
					gain := iu*(uv.hops[bw]-uv.hops[b]) + iw*(wv.hops[b]-wv.hops[bw])
					if gain <= 1e-12 {
						continue
					}
					delta := uv.Shares[bw]
					if wv.Shares[b] < delta {
						delta = wv.Shares[b]
					}
					uv.Shares[bw] -= delta
					uv.Shares[b] += delta
					wv.Shares[b] -= delta
					wv.Shares[bw] += delta
					improved = true
					bw = worstBank(uv)
					if bw < 0 {
						break
					}
				}
				if bw < 0 {
					break
				}
			}
		}
		if !improved {
			break
		}
	}
}

// worstBank returns the held bank with the largest weighted distance, or
// -1 if the VC holds nothing.
func worstBank(v *VC) int {
	best := -1
	var bestHops float64
	for b, s := range v.Shares {
		if s > 0 && (best < 0 || v.hops[b] > bestHops) {
			best, bestHops = b, v.hops[b]
		}
	}
	return best
}

// TotalLinesHeld sums the VC's bank shares.
func (v *VC) TotalLinesHeld() uint64 {
	var t uint64
	for _, s := range v.Shares {
		t += s
	}
	return t
}
