// Package sim is the chip simulator: it replays per-core LLC traces
// (produced by trace.FilterPrivate) against a pluggable LLC organization,
// interleaving cores by their simulated cycle counts, accumulating timing,
// data-movement energy, and per-pool statistics.
//
// Traces arrive as trace.Reader values and are replayed through cursors:
// the simulator never materializes an access slice, so a run's resident
// cost is the columnar trace plus O(1) per-core replay state. Warmup and
// fixed-work (Loop) passes rewind via Cursor.Reset.
package sim

import (
	"fmt"
	"slices"

	"whirlpool/internal/addr"
	"whirlpool/internal/energy"
	"whirlpool/internal/llc"
	"whirlpool/internal/mem"
	"whirlpool/internal/trace"
)

// DefaultTickEvery is how often (in cycles) the LLC's runtime hook fires.
const DefaultTickEvery = 100_000

// Config describes one simulation run.
type Config struct {
	// LLC is the organization under test (constructed against Meter).
	LLC llc.LLC
	// Meter accumulates data-movement energy for the run.
	Meter *energy.Meter
	// Traces holds one filtered trace reader per core; nil entries are
	// idle cores.
	Traces []trace.Reader
	// TickEvery is the LLC runtime hook period in cycles.
	TickEvery uint64
	// PoolOf optionally classifies lines for per-pool statistics.
	PoolOf func(addr.Line) mem.PoolID
	// NumPools sizes the per-pool counters when PoolOf is set.
	NumPools int
	// OnAccess, if set, observes every demand access (time-series
	// figures). Keep it nil on hot paths.
	OnAccess func(now uint64, core int, a trace.LLCAccess, lat uint64, out llc.Outcome)
	// OnTick, if set, fires after every LLC Tick (allocation sampling).
	OnTick func(now uint64)
	// Loop keeps cores replaying their traces until every core has
	// completed at least one pass (the fixed-work mix methodology);
	// per-core stats freeze at first completion.
	Loop bool
	// Warmup replays each trace once, unmeasured, before the measured
	// pass — the analogue of the paper's 20B-instruction fast-forward.
	// Caches, monitors, and the reconfiguration runtime reach steady
	// state; energy and timing counters then start from zero.
	Warmup bool
}

// CoreResult summarizes one core's run.
type CoreResult struct {
	Instrs     uint64
	Cycles     uint64
	LLCStall   uint64
	Demand     uint64
	Hits       uint64
	Misses     uint64
	Bypasses   uint64
	Writebacks uint64
}

// IPC returns instructions per cycle.
func (c CoreResult) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instrs) / float64(c.Cycles)
}

// Result is the outcome of one simulation run.
type Result struct {
	Scheme string
	// Cycles is when the last core finished its (first) pass.
	Cycles uint64
	Cores  []CoreResult
	Energy energy.Meter

	Hits, Misses, Bypasses uint64
	Demand                 uint64
	Instrs                 uint64

	// PoolAccesses/PoolMisses are per-pool demand counters (when PoolOf
	// is configured).
	PoolAccesses []uint64
	PoolMisses   []uint64
}

// IPC returns instructions per cycle over the measured pass. A
// zero-access run (an empty recorded trace) finishes in zero cycles and
// reports zero, like CoreResult.IPC: 0/0 would be NaN, which
// json.Marshal rejects.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

// TotalAccessesAPKI returns demand LLC accesses per kilo-instruction.
func (r *Result) TotalAccessesAPKI() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.Demand) / float64(r.Instrs) * 1000
}

// MPKI returns LLC misses (including bypasses) per kilo-instruction.
func (r *Result) MPKI() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.Misses+r.Bypasses) / float64(r.Instrs) * 1000
}

// coreState tracks replay progress for one core: a cursor over its
// trace plus position/cycle counters.
type coreState struct {
	cur trace.Cursor
	n   int           // accesses per pass
	sum trace.Summary // the trace's private-level stats

	pos       int
	cycles    uint64
	warmStart uint64 // cycle count when measurement began
	instrs    uint64
	finished  bool // pass completed; stats frozen
	res       CoreResult
}

// next returns the core's next access, rewinding the cursor at the end
// of each full pass. done reports that this access completes a pass; ok
// is false when the cursor stopped short of one: a corrupt trace column
// or a closed mapping, reported by the cursor's Err.
func (cs *coreState) next() (a trace.LLCAccess, done, ok bool) {
	if a, ok = cs.cur.Next(); !ok {
		return a, false, false
	}
	cs.pos++
	if cs.pos >= cs.n {
		cs.cur.Reset()
		cs.pos = 0
		return a, true, true
	}
	return a, false, true
}

// Run executes one simulation to completion and returns the result. It
// fails when a core's trace cursor stops before the end of a pass.
// Traces are shared read-only, so concurrent Runs over the same readers
// are safe as long as each has its own LLC and Meter.
func Run(cfg Config) (*Result, error) {
	if cfg.TickEvery == 0 {
		cfg.TickEvery = DefaultTickEvery
	}
	res := &Result{Scheme: cfg.LLC.Name()}
	if cfg.PoolOf != nil {
		res.PoolAccesses = make([]uint64, cfg.NumPools)
		res.PoolMisses = make([]uint64, cfg.NumPools)
	}
	cores := make([]coreState, len(cfg.Traces))
	var live []int
	for i, t := range cfg.Traces {
		if t == nil || t.NumAccesses() == 0 {
			continue
		}
		cores[i] = coreState{cur: t.NewCursor(), n: t.NumAccesses(), sum: t.Stats()}
		live = append(live, i)
	}
	if len(live) == 0 {
		return res, nil
	}
	nextTick := cfg.TickEvery
	if cfg.Warmup {
		var err error
		if nextTick, err = replay(cfg, res, cores, slices.Clone(live), nextTick, false); err != nil {
			return nil, err
		}
		// Measurement starts warm: reset timing and energy, keep cache
		// state. The cursors were rewound as each warmup pass completed.
		for _, i := range live {
			c := &cores[i]
			*c = coreState{cur: c.cur, n: c.n, sum: c.sum, cycles: c.cycles, warmStart: c.cycles}
		}
		cfg.Meter.Reset()
	}
	if _, err := replay(cfg, res, cores, live, nextTick, true); err != nil {
		return nil, err
	}
	res.Cores = make([]CoreResult, len(cores))
	for i := range cores {
		cr := cores[i].res
		res.Cores[i] = cr
		res.Hits += cr.Hits
		res.Misses += cr.Misses
		res.Bypasses += cr.Bypasses
		res.Demand += cr.Demand
		res.Instrs += cr.Instrs
		res.Cycles = max(res.Cycles, cr.Cycles)
	}
	res.Energy = *cfg.Meter
	return res, nil
}

// replay runs the scheduler until every core in live has completed a
// pass, always advancing the lagging core (lowest cycle count; ties go
// to the lower core index) and firing the LLC's Tick every TickEvery
// cycles. It returns the next Tick deadline, or the error of a cursor
// that stopped mid-pass.
//
// Unmeasured (the warmup), it records nothing, calls neither OnAccess
// nor OnTick, and each core leaves at its first completed pass.
// Measured, each core's stats freeze at its first completed pass; under
// Loop, finished cores keep replaying until every core has finished.
func replay(cfg Config, res *Result, cores []coreState, live []int, nextTick uint64, measure bool) (uint64, error) {
	loop := measure && cfg.Loop
	for remaining := len(live); remaining > 0; {
		core, k := live[0], 0
		cs := &cores[core]
		for j := 1; j < len(live); j++ {
			if c := &cores[live[j]]; c.cycles < cs.cycles {
				cs, core, k = c, live[j], j
			}
		}
		record := measure && !cs.finished
		a, done, ok := cs.next()
		if !ok {
			return nextTick, fmt.Errorf("sim: core %d, access %d of %d: %w", core, cs.pos, cs.n, cs.cur.Err())
		}
		if a.Writeback {
			_, _ = cfg.LLC.Access(core, a)
			if record {
				cs.res.Writebacks++
			}
		} else {
			cs.cycles += uint64(float64(a.Gap) * trace.BaseCPI)
			cs.instrs += uint64(a.Gap)
			lat, out := cfg.LLC.Access(core, a)
			lat = uint64(float64(lat) * trace.LLCStallFactor)
			cs.cycles += lat
			if record {
				cs.res.Demand++
				cs.res.LLCStall += lat
				switch out {
				case llc.Hit:
					cs.res.Hits++
				case llc.Bypass:
					cs.res.Bypasses++
				default:
					cs.res.Misses++
				}
				if cfg.PoolOf != nil {
					p := int(cfg.PoolOf(a.Line))
					if p >= 0 && p < len(res.PoolAccesses) {
						res.PoolAccesses[p]++
						if out != llc.Hit {
							res.PoolMisses[p]++
						}
					}
				}
			}
			if measure && cfg.OnAccess != nil {
				cfg.OnAccess(cs.cycles, core, a, lat, out)
			}
		}
		if cs.cycles >= nextTick {
			cfg.LLC.Tick(cs.cycles)
			if measure && cfg.OnTick != nil {
				cfg.OnTick(cs.cycles)
			}
			nextTick += cfg.TickEvery
		}
		if done && !cs.finished {
			cs.finished = true
			if measure {
				cs.res.Instrs = cs.instrs
				cs.res.Cycles = cs.cycles - cs.warmStart + cs.sum.L2Hits*trace.L2HitStall
			}
			remaining--
			if !loop {
				live = append(live[:k], live[k+1:]...)
			}
		}
	}
	return nextTick, nil
}
