package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"whirlpool/internal/experiments"
	"whirlpool/internal/llc"
	"whirlpool/internal/results"
	"whirlpool/internal/schemes"
	"whirlpool/internal/trace"
	"whirlpool/internal/workloads"
)

// The traced run registers two kinds of scheme through the public
// registry: bench.timed.<id> wraps a paper scheme, counting its Access
// calls and timing each Tick, and bench.noop answers every access as a
// zero-latency hit, so a run on it costs trace decode plus the
// scheduler and nothing else.
const (
	timedPrefix = "bench.timed."
	noopKind    = schemes.Kind("bench.noop")
)

// llcCounters are one instrumented LLC's counts. Each LLC serves one
// sweep cell on one goroutine, so they are plain fields, read once the
// sweep has returned.
type llcCounters struct {
	kind                    schemes.Kind
	accesses, ticks, tickNS int64
}

// timedLLC counts an LLC's Access calls and times each Tick.
type timedLLC struct {
	llc.LLC
	c *llcCounters
}

func (t timedLLC) Access(core int, a trace.LLCAccess) (uint64, llc.Outcome) {
	t.c.accesses++
	return t.LLC.Access(core, a)
}

func (t timedLLC) Tick(now uint64) {
	start := time.Now()
	t.LLC.Tick(now)
	t.c.tickNS += int64(time.Since(start))
	t.c.ticks++
}

type noopLLC struct{}

func (noopLLC) Name() string                                      { return "noop" }
func (noopLLC) Access(int, trace.LLCAccess) (uint64, llc.Outcome) { return 0, llc.Hit }
func (noopLLC) Tick(uint64)                                       {}

// built holds the counters of every LLC instrumented since the last
// takeBuilt (the counters only: holding the LLCs would keep every
// cell's cache arrays alive).
var built struct {
	sync.Mutex
	counters []*llcCounters
}

var registerOnce sync.Once

// registerTraced adds the timed wrappers and the no-op LLC to the
// scheme registry, once per process.
func registerTraced() {
	registerOnce.Do(func() {
		timed := func(k schemes.Kind, l llc.LLC) llc.LLC {
			c := &llcCounters{kind: k}
			built.Lock()
			built.counters = append(built.counters, c)
			built.Unlock()
			return timedLLC{LLC: l, c: c}
		}
		for _, k := range schemes.PaperKinds() {
			schemes.MustRegister(timedPrefix+k.ID(), "timed "+k.String(), func(o schemes.Options) llc.LLC {
				return timed(k, schemes.Build(k, o))
			})
		}
		schemes.MustRegister(string(noopKind), "noop", func(schemes.Options) llc.LLC {
			return timed(noopKind, noopLLC{})
		})
	})
}

// timedKinds maps kinds to their timed wrappers.
func timedKinds(kinds []schemes.Kind) []schemes.Kind {
	registerTraced()
	out := make([]schemes.Kind, len(kinds))
	for i, k := range kinds {
		out[i] = schemes.Kind(timedPrefix + k.ID())
	}
	return out
}

// untimedRows names the wrapped schemes in rows as the schemes they
// wrap, so traced rows compare with untraced ones column by column.
func untimedRows(rows []experiments.SweepRow) []experiments.SweepRow {
	for i := range rows {
		rows[i].Scheme = strings.TrimPrefix(rows[i].Scheme, timedPrefix)
	}
	return rows
}

// llcTotals sums the instrumented LLCs of one kind.
type llcTotals struct {
	accesses, ticks, tickNS float64
}

// takeBuilt sums and forgets the instrumented LLCs built so far.
func takeBuilt() map[schemes.Kind]llcTotals {
	built.Lock()
	counters := built.counters
	built.counters = nil
	built.Unlock()
	out := map[schemes.Kind]llcTotals{}
	for _, c := range counters {
		s := out[c.kind]
		s.accesses += float64(c.accesses)
		s.ticks += float64(c.ticks)
		s.tickNS += float64(c.tickNS)
		out[c.kind] = s
	}
	return out
}

// calibration holds the per-layer costs measured apart from the sweep,
// summed over the grid's apps (and mixes, for the no-op runs).
type calibration struct {
	rawAccesses, genNS, filterNS float64 // workloads.Stream, trace.FilterPrivate
	llcAccesses, encodedBytes    float64 // the filtered traces
	scanAccesses, scanNS         float64 // one cursor pass per app trace
	noopAccesses, noopNS         float64 // each app or mix on the no-op LLC
	openMS                       []float64
}

// calibrate measures the layers below the schemes on the grid's apps,
// on the sweep's worker count: trace generation and filtering, the
// trace resolution the repetitions do (mapping from the cache on
// sweep-warm), one decode pass, and a run on the no-op LLC.
func calibrate(e *env, g grid, st sweepState) (*calibration, error) {
	registerTraced()
	h := st.harness()
	apps := g.appNames()
	defer closeMappings(h, apps)
	c := &calibration{}
	var mu sync.Mutex
	err := parallel(apps, func(app string) error {
		spec, ok := workloads.ByName(app)
		if !ok {
			return fmt.Errorf("unknown app %q", app)
		}
		w := workloads.Build(spec, g.scale)
		t0 := time.Now()
		raw := 0
		for s := w.Stream(e.seed); ; raw++ {
			if _, ok := s.Next(); !ok {
				break
			}
		}
		gen := time.Since(t0)
		t1 := time.Now()
		tr := trace.FilterPrivate(w.Stream(e.seed))
		filter := time.Since(t1) - gen
		t2 := time.Now()
		at, err := h.AppErr(app)
		open := time.Since(t2)
		if err != nil {
			return err
		}
		r := trace.Reader(at.Tr)
		if len(g.mixes) > 0 {
			r = trace.Offset(r, 1<<44) // mixes replay every core's trace through an offset
		}
		t3 := time.Now()
		scanned := 0
		for cur := r.NewCursor(); ; scanned++ {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
		scan := time.Since(t3)
		mapped, _ := at.Tr.(interface{ Mapped() bool })
		mu.Lock()
		defer mu.Unlock()
		c.rawAccesses += float64(raw)
		c.genNS += float64(gen)
		c.filterNS += float64(filter)
		c.llcAccesses += float64(tr.NumAccesses())
		c.encodedBytes += float64(tr.EncodedBytes())
		c.scanAccesses += float64(scanned)
		c.scanNS += float64(scan)
		if mapped != nil && mapped.Mapped() {
			c.openMS = append(c.openMS, float64(open)/1e6)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	takeBuilt()
	var runs []func()
	for _, a := range g.apps {
		runs = append(runs, func() { h.RunSingle(a, noopKind, experiments.RunOptions{}) })
	}
	for _, m := range g.mixes {
		runs = append(runs, func() { h.RunMix(m.Apps, noopKind, m.Chip, false) })
	}
	err = parallel(runs, func(run func()) error {
		t0 := time.Now()
		run()
		d := time.Since(t0)
		mu.Lock()
		c.noopNS += float64(d)
		mu.Unlock()
		return nil
	})
	c.noopAccesses = takeBuilt()[noopKind].accesses
	return c, err
}

// traceLayers reports the per-layer split of the traced repetitions.
// A cell's host time is decode + scheduler + the scheme's Access + its
// Tick: the first two come from the calibration, Tick is timed by the
// wrapper, and each scheme's access_ns is what remains per access.
func traceLayers(e *env, g grid, st sweepState, reps []repetition, ref []experiments.SweepRow, res *result) error {
	defs := perLayer()
	totals := takeBuilt()
	c, err := calibrate(e, g, st)
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	decode := c.scanNS / c.scanAccesses
	noop := c.noopNS / c.noopAccesses
	res.set(defs, "workloads.gen_ns_per_access", c.genNS/c.rawAccesses, 0)
	res.set(defs, "trace.filter_ns_per_access", c.filterNS/c.rawAccesses, 0)
	res.set(defs, "trace.bytes_per_access", c.encodedBytes/c.llcAccesses, 0)
	if len(c.openMS) > 0 {
		res.set(defs, "trace.open_ms", median(c.openMS), len(c.openMS))
	}
	res.set(defs, "trace.decode_ns_per_access", decode, 0)
	res.set(defs, "sim.sched_ns_per_access", noop-decode, 0)

	var traced, untraced []float64
	var workerNS, cellNS float64
	schemeNS := map[string]float64{}
	for _, r := range reps {
		if !r.traced {
			untraced = append(untraced, r.wall.Seconds())
			continue
		}
		traced = append(traced, r.wall.Seconds())
		workerNS += workers * float64(r.wall)
		for _, row := range r.rows {
			schemeNS[row.Scheme] += row.WallMS * 1e6
			cellNS += row.WallMS * 1e6
		}
	}
	n := float64(len(traced))
	hits, demand := map[string]float64{}, map[string]float64{}
	for _, row := range ref {
		hits[row.Scheme] += float64(row.Hits)
		demand[row.Scheme] += float64(row.LLCAccesses)
	}
	for _, k := range g.kinds {
		t := totals[k]
		p := "llc." + k.ID() + "."
		res.set(defs, p+"access_ns", (schemeNS[k.ID()]-t.tickNS)/t.accesses-noop, 0)
		res.set(defs, p+"tick_ms", t.tickNS/1e6/n, len(traced))
		res.set(defs, p+"ticks", t.ticks/n, len(traced))
		res.set(defs, p+"hit_ratio", hits[k.ID()]/demand[k.ID()], 0)
	}
	res.set(defs, "trace_overhead_frac", median(traced)/median(untraced)-1, len(traced))

	// Worker time not spent in a cell, in trace resolution, or in the
	// store is idle: batch imbalance and the serial stages.
	busy := cellNS
	switch s := st.(type) {
	case *coldState:
		busy += n * (c.genNS + c.filterNS) // every repetition generates and filters every trace
		sc, err := storeCalibration(s.template, filepath.Join(e.dir, "store-calibration"), ref)
		if err != nil {
			return err
		}
		sc.report(res)
		busy += n * (sc.openMS + sc.closeMS + sum(sc.putUS)/1e3) * 1e6
	case *warmState:
		busy += n * sum(c.openMS) * 1e6
	}
	res.set(defs, "experiments.idle_frac", 1-busy/workerNS, 0)
	return nil
}

// storeTimes are the result store's own costs on a copy of a workload's
// store.
type storeTimes struct {
	openMS, closeMS float64
	putUS, getUS    []float64
}

// storeCalibration times Open, a Put of every row (as the sweep engine
// commits it), a Get of every row's key, and Close (which rewrites the
// full index snapshot) on a fresh copy of the store in src.
func storeCalibration(src, dir string, rows []experiments.SweepRow) (*storeTimes, error) {
	if err := copyDir(src, dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := &storeTimes{}
	t0 := time.Now()
	st, err := results.Open(dir)
	if err != nil {
		return nil, err
	}
	t.openMS = float64(time.Since(t0)) / 1e6
	for _, row := range rows {
		data, err := json.Marshal(row)
		if err != nil {
			_ = st.Close()
			return nil, err
		}
		t0 := time.Now()
		err = st.Put(results.Record{Key: row.Key, App: row.App, Scheme: row.Scheme, Unix: t0.Unix(), Row: data})
		t.putUS = append(t.putUS, float64(time.Since(t0))/1e3)
		if err != nil {
			_ = st.Close()
			return nil, err
		}
	}
	for _, row := range rows {
		t0 := time.Now()
		_, ok := st.Get(row.Key)
		t.getUS = append(t.getUS, float64(time.Since(t0))/1e3)
		if !ok {
			_ = st.Close()
			return nil, fmt.Errorf("store calibration: key %s not found after Put", row.Key)
		}
	}
	t0 = time.Now()
	err = st.Close()
	t.closeMS = float64(time.Since(t0)) / 1e6
	return t, err
}

func (t *storeTimes) report(res *result) {
	defs := perLayer()
	res.set(defs, "results.open_ms", t.openMS, 0)
	res.set(defs, "results.put_us_p50", median(t.putUS), len(t.putUS))
	res.set(defs, "results.put_ms_max", maxOf(t.putUS)/1e3, len(t.putUS))
	res.set(defs, "results.close_ms", t.closeMS, 0)
	res.set(defs, "results.get_us_p50", median(t.getUS), len(t.getUS))
}
