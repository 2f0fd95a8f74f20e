package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"whirlpool/internal/experiments"
	"whirlpool/internal/noc"
	"whirlpool/internal/results"
	"whirlpool/internal/schemes"
	"whirlpool/internal/stats"
	"whirlpool/internal/workloads"
)

// grid is one sweep workload's cells: apps and mixes crossed with kinds.
type grid struct {
	apps  []string
	mixes []experiments.SweepMix
	kinds []schemes.Kind
	scale float64
}

func (g grid) cells() int { return (len(g.apps) + len(g.mixes)) * len(g.kinds) }

// config is the sweep of the grid under kinds (the paper's schemes, or
// their timed wrappers in the traced run).
func (g grid) config(kinds []schemes.Kind, store *results.Store) experiments.SweepConfig {
	return experiments.SweepConfig{Apps: g.apps, Mixes: g.mixes, Kinds: kinds, Workers: workers, Store: store}
}

// appNames lists every app the grid replays, once each.
func (g grid) appNames() []string {
	seen := map[string]bool{}
	var out []string
	add := func(a string) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, a := range g.apps {
		add(a)
	}
	for _, m := range g.mixes {
		for _, a := range m.Apps {
			add(a)
		}
	}
	return out
}

// drawMixes deals count mixes of n apps from a seeded shuffle of the
// built-in suite, reshuffling when the deck runs out, so each seed's
// mixes together cover the whole suite: the seed changes which apps
// share a chip, not how much work the grid holds.
func drawMixes(seed uint64, count, n int) []experiments.SweepMix {
	names := workloads.BuiltinNames()
	rng := stats.NewRng(seed ^ 0x6d69783136) // "mix16": mixes draw apart from other inputs
	var deck []string
	mixes := make([]experiments.SweepMix, count)
	for m := range mixes {
		apps := make([]string, n)
		for i := range apps {
			if len(deck) == 0 {
				deck = append(deck, names...)
				rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			}
			apps[i], deck = deck[0], deck[1:]
		}
		mixes[m] = experiments.SweepMix{Name: fmt.Sprintf("mix16-%c", 'a'+m), Apps: apps, Chip: noc.SixteenCoreChip()}
	}
	return mixes
}

func newHarness(scale float64, seed uint64) *experiments.Harness {
	h := experiments.NewHarness(scale)
	h.Seed = seed
	return h
}

// buildTraces resolves every app's trace on the harness, on the sweep's
// worker count.
func buildTraces(h *experiments.Harness, apps []string) error {
	return parallel(apps, func(a string) error {
		_, err := h.AppErr(a)
		return err
	})
}

// closeMappings unmaps the harness's memory-mapped traces. A harness
// never unmaps them itself (it lives as long as its process); the
// benchmark drops a harness after every repetition, so it unmaps them
// to keep each repetition's memory like a fresh process's.
func closeMappings(h *experiments.Harness, apps []string) {
	for _, a := range apps {
		if at, err := h.AppErr(a); err == nil {
			if c, ok := at.Tr.(io.Closer); ok {
				_ = c.Close() // read-only mapping; nothing to flush
			}
		}
	}
}

// sweepState is one sweep workload after set-up.
type sweepState interface {
	// sweep runs one timed repetition of the grid under kinds.
	sweep(kinds []schemes.Kind) ([]experiments.SweepRow, time.Duration, error)
	// harness returns a harness resolving traces the way the timed
	// repetitions do (generated, mapped from the cache, or prebuilt).
	harness() *experiments.Harness
}

// sweepWorkload is a workload that times repeated sweeps of one grid.
type sweepWorkload struct {
	name  string
	grid  func(e *env) grid
	setup func(e *env, g grid, dir string) (sweepState, error)
}

var sweepCold = sweepWorkload{
	name: "sweep-cold",
	grid: func(e *env) grid {
		return grid{apps: e.size.sweepApps, kinds: schemes.PaperKinds(), scale: e.size.sweepScale}
	},
	setup: func(e *env, g grid, dir string) (sweepState, error) {
		tmpl := filepath.Join(dir, "template")
		if err := fillStore(tmpl, e.size.storeRecords, nil, e.seed); err != nil {
			return nil, err
		}
		return &coldState{e: e, g: g, dir: dir, template: tmpl}, nil
	},
}

var sweepWarm = sweepWorkload{
	name: "sweep-warm",
	grid: sweepCold.grid,
	setup: func(e *env, g grid, dir string) (sweepState, error) {
		h := newHarness(g.scale, e.seed)
		h.CacheDir = filepath.Join(dir, "traces")
		if err := buildTraces(h, g.appNames()); err != nil {
			return nil, err
		}
		if cs := h.CacheStats(); cs.WriteErrors != 0 || cs.Builds != int64(len(g.appNames())) {
			return nil, fmt.Errorf("warming the trace cache: %+v", cs)
		}
		return &warmState{e: e, g: g, cache: h.CacheDir}, nil
	},
}

var mix16 = sweepWorkload{
	name: "mix16",
	grid: func(e *env) grid {
		return grid{
			mixes: drawMixes(e.seed, e.size.mixCount, 16),
			kinds: []schemes.Kind{schemes.KindSNUCALRU, schemes.KindJigsaw, schemes.KindWhirlpool},
			scale: e.size.mixScale,
		}
	},
	setup: func(e *env, g grid, _ string) (sweepState, error) {
		h := newHarness(g.scale, e.seed)
		if err := buildTraces(h, g.appNames()); err != nil {
			return nil, err
		}
		return &mixState{g: g, h: h}, nil
	},
}

// coldState sweeps on a fresh harness with no trace cache, committing
// every cell to a fresh copy of a pre-filled result store.
type coldState struct {
	e        *env
	g        grid
	dir      string
	template string
	reps     int
}

func (s *coldState) sweep(kinds []schemes.Kind) ([]experiments.SweepRow, time.Duration, error) {
	dir := filepath.Join(s.dir, fmt.Sprintf("rep-%d", s.reps))
	s.reps++
	// Copying the store is the benchmark's bookkeeping, not the user's
	// cost, so it stays outside the timed span.
	if err := copyDir(s.template, dir); err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	st, err := results.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	rows, err := newHarness(s.g.scale, s.e.seed).Sweep(s.g.config(kinds, st))
	cerr := st.Close()
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if cerr != nil {
		return nil, 0, fmt.Errorf("closing the result store: %w", cerr)
	}
	if puts := st.Stats().Puts; puts != int64(len(rows)) {
		return nil, 0, fmt.Errorf("the store committed %d of %d rows", puts, len(rows))
	}
	return rows, wall, nil
}

func (s *coldState) harness() *experiments.Harness { return newHarness(s.g.scale, s.e.seed) }

// warmState sweeps on a fresh harness whose traces all map from the
// trace cache set-up warmed.
type warmState struct {
	e     *env
	g     grid
	cache string
}

func (s *warmState) harness() *experiments.Harness {
	h := newHarness(s.g.scale, s.e.seed)
	h.CacheDir = s.cache
	return h
}

func (s *warmState) sweep(kinds []schemes.Kind) ([]experiments.SweepRow, time.Duration, error) {
	h := s.harness()
	defer closeMappings(h, s.g.appNames())
	start := time.Now()
	rows, err := h.Sweep(s.g.config(kinds, nil))
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if cs := h.CacheStats(); cs.Builds != 0 {
		return nil, 0, fmt.Errorf("a warm sweep generated %d traces", cs.Builds)
	}
	return rows, wall, nil
}

// mixState sweeps the mixes on one harness holding their traces in
// memory since set-up.
type mixState struct {
	g grid
	h *experiments.Harness
}

func (s *mixState) harness() *experiments.Harness { return s.h }

func (s *mixState) sweep(kinds []schemes.Kind) ([]experiments.SweepRow, time.Duration, error) {
	start := time.Now()
	rows, err := s.h.Sweep(s.g.config(kinds, nil))
	return rows, time.Since(start), err
}

// repetition is one timed sweep.
type repetition struct {
	rows   []experiments.SweepRow
	wall   time.Duration
	rssMB  float64 // the resident set's peak during the sweep
	traced bool
}

// run sets the workload up, sweeps it repeatedly for the time budget
// (alternating untraced and traced sweeps in the traced run), checks
// every row, and reports the metrics.
func (w sweepWorkload) run(e *env) (*result, error) {
	res := newResult()
	g := w.grid(e)
	var setups []float64
	var st sweepState
	// The probe runs around the set-ups scale them, and those around the
	// repetitions (from the last set-up's on) scale the repetitions.
	setupProbe := e.probe.sample()
	var timedProbe []float64
	for i := range e.setupReps() {
		freshHeap()
		t0 := time.Now()
		s, err := w.setup(e, g, filepath.Join(e.dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		st = s
		timedProbe = e.probe.sample()
		setupProbe = append(setupProbe, timedProbe...)
	}

	rt := startRuntimeProbe()
	var reps []repetition
	var ref []experiments.SweepRow
	start := time.Now()
	for len(reps) < minReps || e.budgetLeft(start, reps) {
		traced := e.trace && len(reps)%2 == 1
		kinds := g.kinds
		if traced {
			kinds = timedKinds(g.kinds)
		}
		freshHeap()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		rows, wall, err := st.sweep(kinds)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSS()
		if err != nil {
			return nil, err
		}
		timedProbe = append(timedProbe, e.probe.sample()...)
		res.Attempted += len(rows)
		if traced {
			rows = untimedRows(rows)
		}
		if ref == nil {
			ref = rows
			if err := e.checkGolden(w.name, ref, res); err != nil {
				return nil, err
			}
		}
		checkRows(res, g, ref, rows)
		reps = append(reps, repetition{rows: rows, wall: wall, rssMB: rss, traced: traced})
	}
	rt.stop()

	var walls, cellMS, rss []float64
	for _, r := range reps {
		if r.traced {
			continue
		}
		walls = append(walls, r.wall.Seconds())
		rss = append(rss, r.rssMB)
		for _, row := range r.rows {
			cellMS = append(cellMS, row.WallMS)
		}
	}
	setupScale, scale := hostScale(setupProbe), hostScale(timedProbe)
	res.notes = append(res.notes, fmt.Sprintf("host scale %.4g (set-up %.4g); unscaled: setups %.4g s, sweeps %.4g s, cell p50 %.4g ms",
		scale, setupScale, setups, walls, median(cellMS)))
	if !e.trace {
		defs := endToEnd
		res.set(defs, "setup_s", setupScale*median(setups), len(setups))
		res.set(defs, "sweep_s", scale*median(walls), len(walls))
		res.set(defs, "op_p50_ms", scale*median(cellMS), len(cellMS))
		res.set(defs, "max_rss_mb", median(rss), len(rss))
		return res, nil
	}

	defs := perLayer()
	res.set(defs, "host.scale", scale, len(timedProbe))
	rt.report(res)
	if err := setPaperRatios(res, ref); err != nil {
		return nil, err
	}
	res.set(defs, "experiments.cell_ms_p50", median(cellMS), len(cellMS))
	res.set(defs, "experiments.cell_ms_max", maxOf(cellMS), len(cellMS))
	var instrs float64
	for _, row := range ref {
		instrs += float64(row.Instrs)
	}
	res.set(defs, "sim.mips", instrs/median(walls)/1e6, len(walls))
	if err := traceLayers(e, g, st, reps, ref, res); err != nil {
		return nil, err
	}
	return res, nil
}

// checkRows counts every cell of rows that failed or whose simulated
// columns differ from the reference sweep's.
func checkRows(res *result, g grid, ref, rows []experiments.SweepRow) {
	if len(rows) != g.cells() || len(ref) != len(rows) {
		res.fail(g.cells(), "a sweep returned %d rows for %d cells", len(rows), g.cells())
		return
	}
	for i, row := range rows {
		switch {
		case row.Err != "":
			res.fail(1, "%s/%s failed: %s", row.App, row.Scheme, row.Err)
		case simColumns(row) != simColumns(ref[i]):
			res.fail(1, "%s/%s differs between repetitions", row.App, row.Scheme)
		}
	}
}

// simColumns keeps a row's simulated columns: everything but wall_ms
// (host time) and key (a digest of the inputs, not a simulated result).
func simColumns(r experiments.SweepRow) experiments.SweepRow {
	r.WallMS = 0
	r.Key = ""
	return r
}

// setPaperRatios reports the paper's headline comparisons over every
// app or mix the rows hold under both Jigsaw and Whirlpool: the
// geometric mean of Jigsaw's cycles over Whirlpool's (speedup, higher
// is better) and of Whirlpool's energy over Jigsaw's (lower is better).
func setPaperRatios(res *result, rows []experiments.SweepRow) error {
	jig := map[string]experiments.SweepRow{}
	for _, r := range rows {
		if r.Scheme == string(schemes.KindJigsaw) {
			jig[r.App] = r
		}
	}
	var sp, en []float64
	for _, r := range rows {
		j, ok := jig[r.App]
		if r.Scheme != string(schemes.KindWhirlpool) || !ok || r.Cycles == 0 || j.EnergyPJ == 0 {
			continue
		}
		sp = append(sp, float64(j.Cycles)/float64(r.Cycles))
		en = append(en, r.EnergyPJ/j.EnergyPJ)
	}
	if len(sp) == 0 {
		return fmt.Errorf("no app ran under both jigsaw and whirlpool")
	}
	res.set(perLayer(), "sim.speedup_wp_vs_jigsaw", geomean(sp), len(sp))
	res.set(perLayer(), "sim.energy_wp_vs_jigsaw", geomean(en), len(en))
	return nil
}
