// Package experiments reproduces every table and figure in the paper's
// evaluation. The Harness builds workloads, filters their traces through
// the private cache levels once, and replays them against any scheme;
// runner functions (fig*.go) regenerate each figure's rows.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"whirlpool/internal/addr"
	"whirlpool/internal/energy"
	"whirlpool/internal/llc"
	"whirlpool/internal/mem"
	"whirlpool/internal/noc"
	"whirlpool/internal/schemes"
	"whirlpool/internal/sim"
	"whirlpool/internal/trace"
	"whirlpool/internal/workloads"
)

// DefaultReconfigCycles is the scaled-down analogue of the paper's 25ms
// reconfiguration period (see docs/design.md: runs are ~10^8 cycles, so a 2M
// cycle period yields a comparable number of reconfigurations per run).
const DefaultReconfigCycles = 2_000_000

// DefaultSeed drives workload generation when no seed is configured;
// every published number in the repo uses it.
const DefaultSeed = 0xC0FFEE

// Harness caches built workloads and filtered traces so each app is
// generated and private-filtered once per process, then replayed against
// every scheme. The cache is a per-app once: concurrent callers (the
// sweep worker pool) build distinct apps in parallel, but each app's
// expensive trace.FilterPrivate pass runs exactly once.
//
// With CacheDir set, the harness additionally keeps a content-addressed
// on-disk trace cache: each generated trace is written as a .wtrc file
// keyed by the app-spec digest × scale × seed × reconfig, and later
// harnesses (other processes, parallel sweep reruns) stream it back
// instead of regenerating. The key covers the full spec, so a spec-file
// edit or codec bump never resurrects a stale trace.
type Harness struct {
	// Scale multiplies every app's access count (1.0 = full runs).
	Scale float64
	// ReconfigCycles is the D-NUCA runtime period.
	ReconfigCycles uint64
	// Seed drives all workload generation.
	Seed uint64
	// CacheDir, when non-empty, enables the on-disk trace cache. Set it
	// before running, or concurrently via SetCacheDir.
	CacheDir string

	mu        sync.Mutex
	cache     map[string]*appEntry
	builds    atomic.Int64
	diskHits  atomic.Int64
	writeErrs atomic.Int64
}

// SetCacheDir updates CacheDir safely while runs may be in flight
// (whirlpool.SetTraceCacheDir retargets live harnesses through it).
func (h *Harness) SetCacheDir(dir string) {
	h.mu.Lock()
	h.CacheDir = dir
	h.mu.Unlock()
}

// cacheDir reads CacheDir under the same lock.
func (h *Harness) cacheDir() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.CacheDir
}

type appEntry struct {
	once sync.Once
	at   *AppTrace
	err  error
}

// AppTrace is a built app plus its LLC-level trace. Tr is a TraceReader
// rather than a concrete trace: generated apps hold a heap LLCTrace,
// while traces resolved from .wtrc files (recorded apps, disk cache
// hits) stay memory-mapped — the same columns, decoded lazily by the
// same cursor. Mappings live as long as the harness caches the entry
// (process lifetime), so they are never explicitly closed.
type AppTrace struct {
	W  *workloads.Workload
	Tr trace.TraceReader
}

// NewHarness creates a harness at the given workload scale.
func NewHarness(scale float64) *Harness {
	return &Harness{
		Scale:          scale,
		ReconfigCycles: DefaultReconfigCycles,
		Seed:           DefaultSeed,
		cache:          make(map[string]*appEntry),
	}
}

// Invalidate drops the cached trace for each named app, so the next run
// rebuilds it from the current workload registry. Call it after
// registering a spec that redefines an already-run app; harmless for
// names never run (or never known) here. Runs already in flight keep
// the trace they resolved.
func (h *Harness) Invalidate(names ...string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, n := range names {
		delete(h.cache, n)
	}
}

// AppErr returns the cached trace for an app, building it on first use.
// Unknown names (not built-in and not registered) return an error
// without consuming the entry, so an app registered later still builds.
// The spec is resolved at first build and the trace cached for the
// harness's lifetime: register spec files before running (the CLIs do).
func (h *Harness) AppErr(name string) (*AppTrace, error) {
	spec, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown app %q", name)
	}
	h.mu.Lock()
	e := h.cache[name]
	if e == nil {
		e = &appEntry{}
		h.cache[name] = e
	}
	h.mu.Unlock()
	e.once.Do(func() {
		e.at, e.err = h.buildAppTrace(spec)
	})
	return e.at, e.err
}

// buildAppTrace resolves one app's LLC trace: from its recorded .wtrc
// file (trace-sourced spec apps), from the on-disk trace cache, or by
// generating and private-filtering the synthetic stream — writing the
// result back to the cache when one is configured.
func (h *Harness) buildAppTrace(spec workloads.AppSpec) (*AppTrace, error) {
	w := workloads.Build(spec, h.Scale)
	if spec.TracePath != "" {
		// Externally recorded app: the .wtrc file IS the trace; scale
		// and seed do not apply, and the disk cache would be redundant.
		// The file is validated up front (header + CRC) but its columns
		// stay mapped and decode lazily per replay cursor.
		tr, err := trace.OpenMapped(spec.TracePath)
		if err != nil {
			return nil, fmt.Errorf("experiments: app %q: %w", spec.Name, err)
		}
		return &AppTrace{W: w, Tr: tr}, nil
	}
	var cachePath string
	if dir := h.cacheDir(); dir != "" {
		cachePath = filepath.Join(dir, traceCacheName(spec, h.Scale, h.Seed, h.ReconfigCycles))
		if tr, err := trace.OpenMapped(cachePath); err == nil {
			h.diskHits.Add(1)
			return &AppTrace{W: w, Tr: tr}, nil
		}
		// Miss, corrupt entry, or unreadable dir: regenerate (and try to
		// overwrite below — a corrupt file heals itself).
	}
	h.builds.Add(1)
	tr := trace.FilterPrivate(w.Stream(h.Seed))
	if cachePath != "" {
		// The trace is already built, so a cache write failure (read-only
		// dir, full disk) degrades to uncached operation instead of
		// failing the run; CacheStats.WriteErrors makes it observable.
		err := os.MkdirAll(filepath.Dir(cachePath), 0o777)
		if err == nil {
			err = trace.WriteFile(cachePath, tr)
		}
		if err != nil {
			h.writeErrs.Add(1)
		}
	}
	return &AppTrace{W: w, Tr: tr}, nil
}

// traceCacheName is the content-addressed cache file name for one
// (spec, scale, seed, reconfig) combination. The digest covers the full
// app spec (JSON) and the .wtrc format version; the app name prefix is
// cosmetic, for humans listing the cache directory. Reconfig does not
// influence trace content (filtering stops at the private levels) but
// stays in the key for parity with the in-memory harness key — runs
// differing only in reconfig period duplicate identical entries.
func traceCacheName(spec workloads.AppSpec, scale float64, seed, reconfig uint64) string {
	j, _ := json.Marshal(spec)
	d := sha256.New()
	fmt.Fprintf(d, "wtrc%d|scale=%g|seed=%d|reconfig=%d|", trace.FormatVersion, scale, seed, reconfig)
	d.Write(j)
	return fmt.Sprintf("%s-%s.wtrc", spec.Name, hex.EncodeToString(d.Sum(nil))[:24])
}

// CacheStats reports trace provenance counters: Builds counts traces
// generated + private-filtered in this process, DiskHits counts traces
// streamed from the on-disk cache instead, and WriteErrors counts
// cache write-backs that failed (the run continued uncached). A
// warm-cache rerun shows Builds == 0.
type CacheStats struct {
	Builds      int64
	DiskHits    int64
	WriteErrors int64
}

// CacheStats returns the harness's trace provenance counters.
func (h *Harness) CacheStats() CacheStats {
	return CacheStats{
		Builds:      h.builds.Load(),
		DiskHits:    h.diskHits.Load(),
		WriteErrors: h.writeErrs.Load(),
	}
}

// App returns the cached trace for an app, panicking on unknown names
// (the figure runners all use vetted built-in names).
func (h *Harness) App(name string) *AppTrace {
	at, err := h.AppErr(name)
	if err != nil {
		panic(err.Error())
	}
	return at
}

// must unwraps a run for the figure builders, which panic on failure
// like App does: their apps are built in, so a replay error means a
// corrupted trace cache.
func must(r *sim.Result, err error) *sim.Result {
	if err != nil {
		panic(err.Error())
	}
	return r
}

// TraceBuilds reports how many app traces this harness has built — the
// sweep tests assert that trace generation is cached per app, not
// repeated per (app, scheme).
func (h *Harness) TraceBuilds() int64 { return h.builds.Load() }

// poolClassifier builds the Whirlpool classifier for one app: line →
// callpoint → pool (per grouping), giving each pool a per-core VC.
// Trace-sourced apps have no structures (and their lines live in no
// arena of the simulated space), so they classify as one pool per core.
func poolClassifier(w *workloads.Workload, grouping [][]int) llc.Classifier {
	if len(w.Structs) == 0 {
		return func(core int, line addr.Line) llc.VCKey {
			return llc.VCKey{Core: int16(core)}
		}
	}
	cpPools := w.CallpointPools(grouping)
	space := w.Space
	return func(core int, line addr.Line) llc.VCKey {
		return llc.VCKey{
			Core: int16(core),
			Pool: cpPools[space.CallpointOfLine(line)],
		}
	}
}

// RunOptions tweak a single run.
type RunOptions struct {
	// Grouping overrides the pool classification (nil = the app's manual
	// grouping from Table 2, or one pool if never ported).
	Grouping [][]int
	// NoBypass disables VC bypassing (the Fig 21/22 ablation).
	NoBypass bool
	// NoWarmup skips the warm-up pass (time-series figures that want to
	// show the adaptation transient set this).
	NoWarmup bool
	// Chip overrides the default 4-core chip.
	Chip *noc.Chip
	// OnAccess / OnTick / PoolOf pass through to the simulator.
	OnAccess func(now uint64, core int, a trace.LLCAccess, lat uint64, out llc.Outcome)
	OnTick   func(now uint64)
	PerPool  bool // enable per-structure pool counters
	// LLCOverride, when set, is used instead of building kind (for
	// ablation variants of Jigsaw/Whirlpool).
	LLCOverride func(chip *noc.Chip, m *energy.Meter) llc.LLC
}

// RunSingle runs one app (on core 0 of a 4-core chip, like the paper's
// dt example) under one scheme. It fails when the app's trace cannot be
// replayed to the end (a corrupt column behind a valid checksum).
func (h *Harness) RunSingle(app string, kind schemes.Kind, opt RunOptions) (*sim.Result, error) {
	at := h.App(app)
	chip := opt.Chip
	if chip == nil {
		chip = noc.FourCoreChip()
	}
	grouping := opt.Grouping
	if grouping == nil {
		grouping = at.W.ManualGrouping()
	}
	meter := &energy.Meter{}
	var l llc.LLC
	if opt.LLCOverride != nil {
		l = opt.LLCOverride(chip, meter)
	} else {
		l = schemes.Build(kind, schemes.Options{
			Chip:              chip,
			Meter:             meter,
			JigsawClassify:    llc.ThreadPrivate,
			WhirlpoolClassify: poolClassifier(at.W, grouping),
			ReconfigCycles:    h.ReconfigCycles,
			Bypass:            !opt.NoBypass,
		})
	}
	traces := make([]trace.Reader, chip.NCores())
	traces[0] = at.Tr
	cfg := sim.Config{
		LLC:      l,
		Meter:    meter,
		Traces:   traces,
		OnAccess: opt.OnAccess,
		OnTick:   opt.OnTick,
		Warmup:   !opt.NoWarmup,
	}
	if opt.PerPool {
		space := at.W.Space
		cfg.PoolOf = func(line addr.Line) mem.PoolID {
			return mem.PoolID(space.CallpointOfLine(line))
		}
		cfg.NumPools = len(at.W.Structs) + 1
	}
	return sim.Run(cfg)
}

// mixLineOffset separates per-core address spaces in multi-programmed
// mixes (apps are independent processes; shared arrays must not alias).
func mixLineOffset(core int) addr.Line {
	return addr.Line(uint64(core+1) << 44)
}

// RunMix runs one app per core under the fixed-work methodology
// (Appendix A): every app keeps running until all finish one pass; stats
// freeze at each app's first completion. App i runs on core i; use
// RunMixPinned to place apps on specific cores.
func (h *Harness) RunMix(apps []string, kind schemes.Kind, chip *noc.Chip, noBypass bool) (*sim.Result, error) {
	return h.RunMixPinned(apps, nil, kind, chip, noBypass)
}

// RunMixPinned is RunMix with explicit core placement: app i runs on
// core pins[i]. Pins must be distinct and within the chip's core count;
// nil means the identity placement (app i on core i). Per-core results
// land at the pinned core's index in Result.Cores.
func (h *Harness) RunMixPinned(apps []string, pins []int, kind schemes.Kind, chip *noc.Chip, noBypass bool) (*sim.Result, error) {
	if len(apps) > chip.NCores() {
		panic("experiments: more apps than cores")
	}
	if pins == nil {
		pins = make([]int, len(apps))
		for i := range pins {
			pins[i] = i
		}
	}
	if len(pins) != len(apps) {
		panic(fmt.Sprintf("experiments: %d pins for %d apps", len(pins), len(apps)))
	}
	meter := &energy.Meter{}

	// Whirlpool classification across the mix: decode the core's app from
	// the line offset.
	type appCtx struct {
		w       *workloads.Workload
		cpPools map[mem.Callpoint]mem.PoolID
	}
	ctxs := make([]appCtx, chip.NCores())
	traces := make([]trace.Reader, chip.NCores())
	for i, name := range apps {
		c := pins[i]
		if c < 0 || c >= chip.NCores() {
			panic(fmt.Sprintf("experiments: pin %d outside the chip's %d cores", c, chip.NCores()))
		}
		if traces[c] != nil {
			panic(fmt.Sprintf("experiments: two apps pinned to core %d", c))
		}
		at := h.App(name)
		ctxs[c] = appCtx{w: at.W, cpPools: at.W.CallpointPools(at.W.ManualGrouping())}
		traces[c] = trace.Offset(at.Tr, mixLineOffset(c))
	}
	whirlpoolClassify := func(core int, line addr.Line) llc.VCKey {
		// Trace-sourced apps (no structures) fall into the default
		// one-VC-per-core arm, like idle cores.
		if core >= len(ctxs) || ctxs[core].w == nil || len(ctxs[core].w.Structs) == 0 {
			return llc.VCKey{Core: int16(core)}
		}
		orig := line - mixLineOffset(core)
		ctx := &ctxs[core]
		return llc.VCKey{
			Core: int16(core),
			Pool: ctx.cpPools[ctx.w.Space.CallpointOfLine(orig)],
		}
	}
	l := schemes.Build(kind, schemes.Options{
		Chip:              chip,
		Meter:             meter,
		JigsawClassify:    llc.ThreadPrivate,
		WhirlpoolClassify: whirlpoolClassify,
		ReconfigCycles:    h.ReconfigCycles,
		Bypass:            !noBypass,
	})
	return sim.Run(sim.Config{
		LLC:    l,
		Meter:  meter,
		Traces: traces,
		Loop:   true,
		Warmup: true,
	})
}
