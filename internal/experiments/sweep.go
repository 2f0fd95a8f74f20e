package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"whirlpool/internal/noc"
	"whirlpool/internal/obs"
	"whirlpool/internal/results"
	"whirlpool/internal/schemes"
	"whirlpool/internal/sim"
	"whirlpool/internal/workloads"
)

// SweepMix is a named multi-programmed combination swept as one unit
// (one app per core, fixed-work methodology).
type SweepMix struct {
	Name string
	Apps []string
	// Pins places app i on core Pins[i]; nil means app i on core i.
	Pins []int
	// Chip overrides the default topology (4-core chip for up to 4
	// apps, 16-core beyond).
	Chip *noc.Chip
}

// SweepCell names one grid cell explicitly: either an app or a mix
// (resolved against SweepConfig.Mixes by name) crossed with one scheme.
// Explicit cells are how a distributed coordinator hands a shard of its
// grid to a worker: the worker runs exactly these cells, nothing else.
type SweepCell struct {
	App    string `json:"app,omitempty"`
	Mix    string `json:"mix,omitempty"`
	Scheme string `json:"scheme"`
}

// CellRef identifies one pending (not store-served) cell handed to a
// Remote executor: its position in the grid, its identity, and its
// content-address (empty when the cell is uncacheable). Rows coming
// back from remote workers carry the same key, which is how the
// coordinator routes them into the grid.
type CellRef struct {
	Index int
	Cell  SweepCell
	Key   string
}

// RemoteExec executes a sweep's pending cells somewhere else (the
// dispatch layer shards them across worker daemons). It must call
// deliver at most once per cell, from any goroutine, and must not call
// it after returning; cells never delivered are marked canceled (when
// ctx was canceled) or as error rows (when the executor failed).
type RemoteExec func(ctx context.Context, cells []CellRef, deliver func(CellRef, SweepRow)) error

// SweepConfig describes an app × scheme grid to fan out across workers.
type SweepConfig struct {
	// Apps are single-app jobs (run on core 0 of the 4-core chip).
	Apps []string
	// Mixes are multi-app jobs (4-core chip up to 4 apps, 16-core up
	// to 16, or each mix's own Chip). With Cells set they are only
	// definitions: mix cells resolve against them by name.
	Mixes []SweepMix
	// Kinds are the schemes to cross with every app and mix; nil means
	// every registered scheme. Ignored when Cells is set.
	Kinds []schemes.Kind
	// Cells, when non-empty, replaces the apps × schemes cross product
	// with exactly these cells, in order (shard execution).
	Cells []SweepCell
	// Workers bounds concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// NoBypass disables VC bypassing in every run (ablation sweeps).
	NoBypass bool
	// OnRow, if set, observes each finished row (progress reporting),
	// including canceled cells, so done reaches total even on aborted
	// sweeps. It is called from worker goroutines, serialized by the
	// engine.
	OnRow func(done, total int, row SweepRow)
	// Context, if set, cancels the sweep: in-flight cells finish, cells
	// not yet started are marked with Err "canceled", and Sweep returns
	// the context's error alongside the partial rows.
	Context context.Context
	// Store, if set, memoizes cells in a persistent result store: any
	// cell whose content-address (spec JSON × scheme × scale × seed ×
	// reconfig × chip × format version) is already present is served
	// without regenerating its trace or simulating anything, and each
	// freshly computed row is committed as it finishes — including
	// mid-sweep cancellation, so a resubmitted sweep resumes where the
	// canceled one stopped. Store.Stats() proves the split: Hits rows
	// were served, Misses were computed. Error rows are never memoized.
	Store *results.Store
	// Remote, if set, executes the pending (not store-served) cells via
	// a remote executor instead of the local worker pool. Store lookup,
	// per-cell commit, progress, and cancellation accounting all stay
	// here; only the simulation happens elsewhere. No traces are built
	// locally.
	Remote RemoteExec
	// Stats, if non-nil, is filled with this sweep's cell-resolution
	// summary before Sweep returns (per-sweep accounting even when the
	// Store is shared by concurrent sweeps).
	Stats *SweepStats
	// Tracer, if set, receives per-cell stage spans (store.lookup,
	// trace.load, sim.run, store.commit), parented under the span
	// context riding Context (obs.FromContext) when one is present.
	// Span emission is allocation-free; a nil Tracer costs nothing.
	Tracer *obs.Tracer
}

// SweepStats summarizes how one sweep's cells were resolved.
type SweepStats struct {
	// Served cells came from the result store: no trace generation, no
	// simulation.
	Served int `json:"served"`
	// Computed cells were simulated (and committed to the store when
	// one is configured).
	Computed int `json:"computed"`
	// Errors counts cells that failed (error rows).
	Errors int `json:"errors"`
	// Canceled counts cells skipped by context cancellation.
	Canceled int `json:"canceled"`
	// Workers, on distributed sweeps, splits the work by executing
	// worker (filled by the dispatch layer, not by Sweep itself).
	Workers []WorkerStats `json:"workers,omitempty"`
}

// WorkerStats is one remote worker's share of a distributed sweep.
type WorkerStats struct {
	// Worker is the worker daemon's base URL.
	Worker string `json:"worker"`
	// Served and Computed split the worker's delivered cells by how its
	// own store resolved them.
	Served   int `json:"served"`
	Computed int `json:"computed"`
	// Errors counts error rows this worker delivered.
	Errors int `json:"errors,omitempty"`
	// Redispatched counts cells moved to surviving workers after this
	// one died mid-shard.
	Redispatched int `json:"redispatched,omitempty"`
	// Dead marks a worker that failed during the sweep.
	Dead bool `json:"dead,omitempty"`
}

// SweepRow is one (app-or-mix, scheme) cell of a sweep's result grid.
type SweepRow struct {
	App    string `json:"app"`
	Scheme string `json:"scheme"`
	// Mix marks rows produced by a multi-app mix; App is the mix name.
	Mix bool `json:"mix,omitempty"`

	Cycles uint64  `json:"cycles"`
	Instrs uint64  `json:"instrs"`
	IPC    float64 `json:"ipc"`
	APKI   float64 `json:"apki"`
	MPKI   float64 `json:"mpki"`

	LLCAccesses uint64 `json:"llc_accesses"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Bypasses    uint64 `json:"bypasses"`

	EnergyPJ        float64 `json:"energy_pj"`
	NetworkEnergyPJ float64 `json:"network_energy_pj"`
	BankEnergyPJ    float64 `json:"bank_energy_pj"`
	MemoryEnergyPJ  float64 `json:"memory_energy_pj"`

	// WallMS is host wall-clock time for this cell (not simulated time).
	WallMS float64 `json:"wall_ms"`
	// Err is set when the cell failed; the other fields are then zero.
	Err string `json:"error,omitempty"`
	// Key is the cell's content-address (see resultstore.go), the same
	// for every run with identical inputs; empty when the cell is
	// uncacheable. Distributed coordinators route returned rows into
	// the grid by it.
	Key string `json:"key,omitempty"`
}

func rowFromResult(name string, mix bool, kind schemes.Kind, r *sim.Result, wall time.Duration) SweepRow {
	return SweepRow{
		App:             name,
		Scheme:          kind.ID(),
		Mix:             mix,
		Cycles:          r.Cycles,
		Instrs:          r.Instrs,
		IPC:             r.IPC(),
		APKI:            r.TotalAccessesAPKI(),
		MPKI:            r.MPKI(),
		LLCAccesses:     r.Demand,
		Hits:            r.Hits,
		Misses:          r.Misses,
		Bypasses:        r.Bypasses,
		EnergyPJ:        r.Energy.Total(),
		NetworkEnergyPJ: r.Energy.NetworkPJ,
		BankEnergyPJ:    r.Energy.BankPJ,
		MemoryEnergyPJ:  r.Energy.MemoryPJ,
		WallMS:          float64(wall.Microseconds()) / 1000,
	}
}

// sweepJob is one grid cell.
type sweepJob struct {
	app  string
	mix  *SweepMix
	kind schemes.Kind
}

// name returns the row's identity column: the app or mix name.
func (j sweepJob) name() string {
	if j.mix != nil {
		return j.mix.Name
	}
	return j.app
}

// cell returns the job's wire-format identity.
func (j sweepJob) cell() SweepCell {
	if j.mix != nil {
		return SweepCell{Mix: j.mix.Name, Scheme: j.kind.ID()}
	}
	return SweepCell{App: j.app, Scheme: j.kind.ID()}
}

// canceledRow marks one never-run cell.
func canceledRow(j sweepJob, key string) SweepRow {
	return SweepRow{App: j.name(), Scheme: j.kind.ID(), Mix: j.mix != nil,
		Key: key, Err: "canceled"}
}

// mixChip resolves the topology a mix runs on: its own Chip if set,
// else the paper's 4-core chip when the apps and pins fit, else the
// 16-core chip.
func mixChip(m *SweepMix) *noc.Chip {
	if m.Chip != nil {
		return m.Chip
	}
	need := len(m.Apps)
	for _, p := range m.Pins {
		if p+1 > need {
			need = p + 1
		}
	}
	if need <= 4 {
		return noc.FourCoreChip()
	}
	return noc.SixteenCoreChip()
}

// sweepProgress serializes per-row observation: done counts every
// resolved cell — served, computed, failed, or canceled — so observers
// always see done reach total.
type sweepProgress struct {
	mu    sync.Mutex
	done  int
	total int
	onRow func(done, total int, row SweepRow)
}

func (p *sweepProgress) emit(row SweepRow) {
	p.mu.Lock()
	p.done++
	if p.onRow != nil {
		p.onRow(p.done, p.total, row)
	}
	p.mu.Unlock()
}

// buildGrid resolves the configured grid into ordered cells: the
// explicit Cells list when set, else apps × kinds then mixes × kinds.
func buildGrid(cfg *SweepConfig) ([]sweepJob, error) {
	mixNames := make([]string, len(cfg.Mixes))
	for i := range cfg.Mixes {
		mixNames[i] = cfg.Mixes[i].Name
	}
	if err := duplicate("mix", mixNames); err != nil {
		return nil, err
	}
	if len(cfg.Cells) > 0 {
		mixByName := map[string]*SweepMix{}
		for i := range cfg.Mixes {
			mixByName[cfg.Mixes[i].Name] = &cfg.Mixes[i]
		}
		jobs := make([]sweepJob, 0, len(cfg.Cells))
		seen := make(map[SweepCell]bool, len(cfg.Cells))
		for _, c := range cfg.Cells {
			k, err := schemes.ParseKind(c.Scheme)
			if err != nil {
				return nil, fmt.Errorf("experiments: cell: %w", err)
			}
			// Duplicate cells would collide in remote row routing (two
			// grid slots, one identity) — reject them here like the
			// daemon's shard endpoint does.
			if seen[c] {
				return nil, fmt.Errorf("experiments: duplicate cell %s%s/%s", c.App, c.Mix, c.Scheme)
			}
			seen[c] = true
			switch {
			case c.App != "" && c.Mix != "":
				return nil, fmt.Errorf("experiments: cell names both app %q and mix %q", c.App, c.Mix)
			case c.Mix != "":
				m, ok := mixByName[c.Mix]
				if !ok {
					return nil, fmt.Errorf("experiments: cell references undefined mix %q", c.Mix)
				}
				jobs = append(jobs, sweepJob{mix: m, kind: k})
			case c.App != "":
				jobs = append(jobs, sweepJob{app: c.App, kind: k})
			default:
				return nil, fmt.Errorf("experiments: cell names neither an app nor a mix")
			}
		}
		return jobs, nil
	}
	if len(cfg.Apps) == 0 && len(cfg.Mixes) == 0 {
		return nil, fmt.Errorf("experiments: sweep has no apps and no mixes")
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = schemes.AllKinds()
	}
	kindIDs := make([]string, len(kinds))
	for i, k := range kinds {
		kindIDs[i] = k.ID()
	}
	for _, err := range []error{duplicate("app", cfg.Apps), duplicate("scheme", kindIDs)} {
		if err != nil {
			return nil, err
		}
	}
	var jobs []sweepJob
	for _, a := range cfg.Apps {
		for _, k := range kinds {
			jobs = append(jobs, sweepJob{app: a, kind: k})
		}
	}
	for i := range cfg.Mixes {
		for _, k := range kinds {
			jobs = append(jobs, sweepJob{mix: &cfg.Mixes[i], kind: k})
		}
	}
	return jobs, nil
}

// duplicate reports the first name that repeats in names: a repeated
// name would cross into identical cells, simulated and printed once per
// copy.
func duplicate(what string, names []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return fmt.Errorf("experiments: duplicate %s %q", what, n)
		}
		seen[n] = true
	}
	return nil
}

// validateGrid builds cfg's grid and fails fast on unresolvable names
// and malformed mixes, before any expensive trace generation. The apps
// in known count as registered.
func validateGrid(cfg *SweepConfig, known []string) ([]sweepJob, error) {
	jobs, err := buildGrid(cfg)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("experiments: sweep has no cells")
	}
	for i := range cfg.Mixes {
		m := &cfg.Mixes[i]
		cores := mixChip(m).NCores()
		if len(m.Apps) == 0 || len(m.Apps) > cores {
			return nil, fmt.Errorf("experiments: mix %q has %d apps (want 1..%d)", m.Name, len(m.Apps), cores)
		}
		if m.Pins != nil {
			if len(m.Pins) != len(m.Apps) {
				return nil, fmt.Errorf("experiments: mix %q has %d pins for %d apps", m.Name, len(m.Pins), len(m.Apps))
			}
			seen := map[int]bool{}
			for _, p := range m.Pins {
				if p < 0 || p >= cores {
					return nil, fmt.Errorf("experiments: mix %q pins core %d (chip has %d cores)", m.Name, p, cores)
				}
				if seen[p] {
					return nil, fmt.Errorf("experiments: mix %q pins core %d twice", m.Name, p)
				}
				seen[p] = true
			}
		}
	}
	needed := map[string]bool{}
	for _, j := range jobs {
		if j.mix != nil {
			for _, a := range j.mix.Apps {
				needed[a] = true
			}
		} else {
			needed[j.app] = true
		}
	}
	for _, a := range known {
		delete(needed, a)
	}
	var unknown []string
	//whirl:unordered unknown names are sorted before they reach the error message
	for a := range needed {
		if _, ok := workloads.ByName(a); !ok {
			unknown = append(unknown, a)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("experiments: unknown apps in sweep: %v (whirlsim -list shows valid names)", unknown)
	}
	return jobs, nil
}

// Sweep fans the app × scheme grid out across a worker pool and returns
// one row per cell, in deterministic grid order (apps first, then
// mixes; schemes in the given order). Each app's trace is generated and
// private-filtered once and shared read-only by every scheme's run, so
// results are bit-identical to serial RunSingle/RunMix calls.
//
// The run is staged: cells are content-addressed (stage 0), served from
// the result store where possible, trace-prefetched (stage 1), then
// simulated (stage 2) — locally on the worker pool, or remotely when
// cfg.Remote is set (the distributed coordinator path, which reuses
// stages 0 and the per-cell commit unchanged).
func (h *Harness) Sweep(cfg SweepConfig) ([]SweepRow, error) {
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	jobs, err := validateGrid(&cfg, nil)
	if err != nil {
		return nil, err
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rows := make([]SweepRow, len(jobs))

	// Stage spans parent under whatever span context rides the sweep's
	// context (the daemon's job span; absent on plain CLI runs).
	spanParent, _ := obs.FromContext(ctx)

	// Stage 0: content-address every cell (always, not just with a
	// store — rows carry their keys so coordinators can route them and
	// clients can correlate runs), then serve memoized cells. This
	// happens before trace prefetch so a fully warm store costs zero
	// trace generations as well as zero simulations.
	keys := h.cellKeys(jobs, cfg.NoBypass)
	served := make([]bool, len(jobs))
	if cfg.Store != nil {
		h.storeLookup(cfg.Store, keys, rows, served, cfg.Tracer, spanParent)
	}

	// Stage 1: build every trace an unserved cell needs, concurrently,
	// each exactly once. Skipped entirely on the remote path: the
	// simulating workers build their own.
	if cfg.Remote == nil {
		h.prefetchTraces(ctx, jobs, served, workers, cfg.Tracer, spanParent)
	}

	// Stage 2: resolve every cell. Served rows stream through the
	// progress path first (they are done by definition), in grid order.
	prog := &sweepProgress{total: len(jobs), onRow: cfg.OnRow}
	for i := range jobs {
		if served[i] {
			prog.emit(rows[i])
		}
	}
	var execErr error
	if cfg.Remote != nil {
		execErr = h.runRemote(ctx, &cfg, jobs, rows, keys, served, prog)
	} else {
		h.runLocal(ctx, &cfg, jobs, rows, keys, served, prog, workers, spanParent)
	}

	if cfg.Stats != nil {
		st := SweepStats{}
		for i, r := range rows {
			switch {
			case served[i]:
				st.Served++
			case r.Err == "canceled":
				st.Canceled++
			case r.Err != "":
				st.Errors++
			default:
				st.Computed++
			}
		}
		*cfg.Stats = st
	}
	if err := ctx.Err(); err != nil {
		return rows, fmt.Errorf("experiments: sweep canceled after %d of %d cells: %w", prog.done, len(jobs), err)
	}
	if execErr != nil {
		return rows, fmt.Errorf("experiments: dispatch: %w", execErr)
	}
	return rows, nil
}

// prefetchTraces builds each unserved cell's app traces concurrently,
// each exactly once (stage 1). Each build emits a trace.load span whose
// mmap attr records whether the trace came up as a zero-copy mapped
// .wtrc or a heap-decoded stream.
func (h *Harness) prefetchTraces(ctx context.Context, jobs []sweepJob, served []bool, workers int, tr *obs.Tracer, parent obs.SpanContext) {
	needed := map[string]bool{}
	for i, j := range jobs {
		if served[i] {
			continue
		}
		if j.mix != nil {
			for _, a := range j.mix.Apps {
				needed[a] = true
			}
		} else {
			needed[j.app] = true
		}
	}
	names := make([]string, 0, len(needed))
	//whirl:unordered prefetch names are sorted before the workers see them
	for a := range needed {
		names = append(names, a)
	}
	sort.Strings(names)
	prefetch := make(chan string, len(names))
	for _, a := range names {
		prefetch <- a
	}
	close(prefetch)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range prefetch {
				if ctx.Err() != nil {
					continue // drain without building
				}
				sp := tr.Start(parent, "trace.load")
				at, err := h.AppErr(a)
				sp.SetStr("app", a)
				if err != nil {
					sp.SetStr("error", err.Error())
				} else if at != nil && at.Tr != nil {
					m, ok := at.Tr.(interface{ Mapped() bool })
					sp.SetBool("mmap", ok && m.Mapped())
				}
				sp.End()
			}
		}()
	}
	wg.Wait()
}

// runLocal simulates the unserved cells on the local worker pool
// (stage 2). Every resolved cell — computed, failed, or canceled —
// flows through the progress path.
//
// Cells are handed out in same-app batches: all unserved cells of one
// app (or mix) are grouped so one worker runs every scheme of that app
// back to back over the same decoded (or mapped) trace reader. Batching
// is kept for memory: handing out single cells instead raised the
// benchmark's max_rss_mb on every sweep workload (sweep-cold +16%,
// sweep-warm +7%, mix16 +5%). Rows stay bit-identical: grouping only
// changes which goroutine runs a cell, never its inputs, and every cell
// still commits to the store and emits progress individually. Large
// groups are chunked so a sweep dominated by one app still spreads
// across the pool.
func (h *Harness) runLocal(ctx context.Context, cfg *SweepConfig, jobs []sweepJob, rows []SweepRow, keys []string, served []bool, prog *sweepProgress, workers int, spanParent obs.SpanContext) {
	batches := batchByApp(jobs, served, workers)
	work := make(chan []int, len(batches))
	for _, b := range batches {
		work <- b
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for batch := range work {
				for _, i := range batch {
					if ctx.Err() != nil {
						rows[i] = canceledRow(jobs[i], keys[i])
						prog.emit(rows[i])
						continue
					}
					cell := cfg.Tracer.Start(spanParent, "sweep.cell")
					cell.SetStr("app", jobs[i].name())
					cell.SetStr("scheme", jobs[i].kind.ID())
					sp := cfg.Tracer.Start(cell.Context(), "sim.run")
					sp.SetStr("app", jobs[i].name())
					sp.SetStr("scheme", jobs[i].kind.ID())
					if m := jobs[i].mix; m != nil {
						sp.SetInt("cells", int64(len(m.Apps)))
					} else {
						sp.SetInt("cells", 1)
					}
					row := h.runSweepJob(jobs[i], cfg.NoBypass)
					sp.End()
					row.Key = keys[i]
					rows[i] = row
					if cfg.Store != nil {
						sp = cfg.Tracer.Start(cell.Context(), "store.commit")
						storeCommit(cfg.Store, keys[i], row)
						sp.End()
					}
					if row.Err != "" {
						cell.SetBool("error", true)
					}
					cell.End()
					prog.emit(row)
				}
			}
		}()
	}
	wg.Wait()
}

// batchByApp groups the unserved cell indices by app/mix name (grid
// order preserved within each group, groups in first-appearance order),
// then chunks groups so no batch exceeds ceil(unserved/workers) cells —
// the cap that keeps a one-app sweep parallel while still letting the
// common grid shape (every scheme × one app) ride a single worker's
// warm trace.
func batchByApp(jobs []sweepJob, served []bool, workers int) [][]int {
	groups := map[string][]int{}
	var order []string
	unserved := 0
	for i := range jobs {
		if served[i] {
			continue
		}
		name := jobs[i].name()
		if _, ok := groups[name]; !ok {
			order = append(order, name)
		}
		groups[name] = append(groups[name], i)
		unserved++
	}
	if unserved == 0 {
		return nil
	}
	maxBatch := (unserved + workers - 1) / workers
	if maxBatch < 1 {
		maxBatch = 1
	}
	var batches [][]int
	for _, name := range order {
		g := groups[name]
		for len(g) > maxBatch {
			batches = append(batches, g[:maxBatch])
			g = g[maxBatch:]
		}
		batches = append(batches, g)
	}
	return batches
}

// runRemote hands the unserved cells to cfg.Remote (stage 2 on a
// distributed coordinator): delivered rows are keyed, committed, and
// observed exactly like locally computed ones; cells the executor never
// delivered become canceled or error rows, so the grid is always fully
// accounted for.
func (h *Harness) runRemote(ctx context.Context, cfg *SweepConfig, jobs []sweepJob, rows []SweepRow, keys []string, served []bool, prog *sweepProgress) error {
	pending := make([]CellRef, 0, len(jobs))
	for i, j := range jobs {
		if !served[i] {
			pending = append(pending, CellRef{Index: i, Cell: j.cell(), Key: keys[i]})
		}
	}
	if len(pending) == 0 {
		return nil // fully warm: don't touch the fleet
	}
	delivered := make([]bool, len(jobs))
	var mu sync.Mutex
	execErr := cfg.Remote(ctx, pending, func(ref CellRef, row SweepRow) {
		mu.Lock()
		bad := ref.Index < 0 || ref.Index >= len(jobs) || served[ref.Index] || delivered[ref.Index]
		if !bad {
			delivered[ref.Index] = true
		}
		mu.Unlock()
		if bad {
			return
		}
		row.Key = keys[ref.Index]
		rows[ref.Index] = row
		if cfg.Store != nil {
			storeCommit(cfg.Store, keys[ref.Index], row)
		}
		prog.emit(row)
	})
	for i := range jobs {
		if served[i] || delivered[i] {
			continue
		}
		row := canceledRow(jobs[i], keys[i])
		if ctx.Err() == nil {
			row.Err = "dispatch: no worker delivered this cell"
			if execErr != nil {
				row.Err = "dispatch: " + execErr.Error()
			}
		}
		rows[i] = row
		prog.emit(row)
	}
	return execErr
}

// runSweepJob executes one cell, converting panics from deep inside the
// simulator into error rows so one bad cell cannot take down a sweep.
// The panic site's stack rides along in the error row: without it a
// sweep-reported failure is undebuggable, because recover() by itself
// discards where the panic happened.
func (h *Harness) runSweepJob(j sweepJob, noBypass bool) (row SweepRow) {
	defer func() {
		if r := recover(); r != nil {
			row = SweepRow{App: j.name(), Scheme: j.kind.ID(), Mix: j.mix != nil,
				Err: fmt.Sprintf("panic: %v\n%s", r, debug.Stack())}
		}
	}()
	start := time.Now() //whirl:wallclock cell wall time feeds the row's wall_ms column, which bit-identity checks strip
	var r *sim.Result
	var err error
	if j.mix != nil {
		r, err = h.RunMixPinned(j.mix.Apps, j.mix.Pins, j.kind, mixChip(j.mix), noBypass)
	} else {
		r, err = h.RunSingle(j.app, j.kind, RunOptions{NoBypass: noBypass})
	}
	if err != nil {
		return SweepRow{App: j.name(), Scheme: j.kind.ID(), Mix: j.mix != nil, Err: err.Error()}
	}
	//whirl:wallclock wall_ms is timing metadata; every simulated column is deterministic
	return rowFromResult(j.name(), j.mix != nil, j.kind, r, time.Since(start))
}
