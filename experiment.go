package whirlpool

import (
	"context"
	"fmt"
	"runtime/debug"

	"whirlpool/internal/experiments"
	"whirlpool/internal/workloads"
)

// Experiment is a configured simulation, built with New and functional
// options and executed with Run (one scheme) or Compare (every
// registered scheme):
//
//	rep, err := whirlpool.New("delaunay", whirlpool.Whirlpool,
//		whirlpool.WithScale(0.5),
//		whirlpool.WithChip(whirlpool.Mesh(8, 8)),
//		whirlpool.WithSeed(42),
//	).Run()
//
// RunParallel runs the task-parallel suite with the same options.
type Experiment struct {
	app    string
	scheme Scheme

	scale         float64
	seed          uint64
	reconfig      uint64
	pools         [][]int
	autoClassify  int
	disableBypass bool
	chip          *Chip
	ctx           context.Context
	observer      func(Report)

	err error // first option/validation error, reported by Run
}

// Option configures an Experiment.
type Option func(*Experiment)

// New builds an experiment for one app under one scheme. Option errors
// are deferred to Run, so call sites stay chainable.
func New(app string, scheme Scheme, opts ...Option) *Experiment {
	e := &Experiment{app: app, scheme: scheme, scale: 1}
	for _, o := range opts {
		o(e)
	}
	return e
}

func (e *Experiment) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// WithScale multiplies workload length (default 1.0, the paper's full
// runs; smaller is faster).
func WithScale(scale float64) Option {
	return func(e *Experiment) {
		s, err := experiments.CheckScale(scale)
		if err != nil {
			e.fail(fmt.Errorf("whirlpool: %w", err))
			return
		}
		e.scale = s
	}
}

// WithSeed drives workload generation from a different seed (default:
// the seed behind every published number in this repo). Reports from
// different seeds are not comparable cell-by-cell.
func WithSeed(seed uint64) Option {
	return func(e *Experiment) { e.seed = seed }
}

// WithReconfigCycles overrides the D-NUCA runtime reconfiguration
// period (default experiments.DefaultReconfigCycles; shorter adapts
// faster at higher overhead).
func WithReconfigCycles(n uint64) Option {
	return func(e *Experiment) {
		if n == 0 {
			e.fail(fmt.Errorf("whirlpool: reconfig period must be > 0"))
			return
		}
		e.reconfig = n
	}
}

// WithPools overrides data classification with explicit groups of
// structure indices (the paper's manual pool_create porting). Nil
// keeps the app's manual classification (Table 2).
func WithPools(pools ...[]int) Option {
	return func(e *Experiment) { e.pools = pools }
}

// WithAutoClassify runs WhirlTool to discover k pools instead of using
// the manual classification (Whirlpool scheme only; others ignore it).
func WithAutoClassify(k int) Option {
	return func(e *Experiment) {
		if k < 1 {
			e.fail(fmt.Errorf("whirlpool: auto-classify needs at least 1 pool, got %d", k))
			return
		}
		e.autoClassify = k
	}
}

// WithoutBypass disables VC bypassing (the paper's Fig 21/22 ablation).
func WithoutBypass() Option {
	return func(e *Experiment) { e.disableBypass = true }
}

// WithChip runs the experiment on a custom chip topology instead of
// the default 4-core chip. See Chip, Mesh, FourCore, SixteenCore.
func WithChip(c Chip) Option {
	return func(e *Experiment) {
		if _, err := c.toNoc(); err != nil {
			e.fail(err)
			return
		}
		e.chip = &c
	}
}

// WithContext attaches a context. Cancellation is observed between
// simulations (an individual run is not interrupted mid-flight): Run
// checks it before starting, Compare between schemes.
func WithContext(ctx context.Context) Option {
	return func(e *Experiment) { e.ctx = ctx }
}

// WithObserver streams every finished report to fn as it completes —
// one call for Run, one per scheme for Compare — before the aggregate
// result returns. fn runs on the calling goroutine.
func WithObserver(fn func(Report)) Option {
	return func(e *Experiment) { e.observer = fn }
}

// harness resolves the experiment's harness from the shared cache,
// keyed on the full harness configuration.
func (e *Experiment) harness() *experiments.Harness {
	return harnessFor(harnessKey{scale: e.scale, seed: e.seed, reconfig: e.reconfig})
}

func (e *Experiment) checkCtx() error {
	if e.ctx != nil {
		return e.ctx.Err()
	}
	return nil
}

// checkClassifiable rejects WhirlTool profiling of trace-sourced apps:
// profiling replays the synthetic generator, which a recorded .wtrc
// trace does not have.
func (e *Experiment) checkClassifiable() error {
	if spec, ok := workloads.ByName(e.app); ok && spec.TracePath != "" {
		return fmt.Errorf("whirlpool: cannot classify trace-sourced app %q (WhirlTool profiles the synthetic generator; recorded traces carry no allocation sites)", e.app)
	}
	return nil
}

// validate resolves the app name; option errors were already captured.
func (e *Experiment) validate() error {
	if e.err != nil {
		return e.err
	}
	if _, ok := workloads.ByName(e.app); !ok {
		return fmt.Errorf("whirlpool: unknown app %q (see Apps())", e.app)
	}
	return nil
}

// Run simulates the app under the experiment's scheme and returns its
// report.
func (e *Experiment) Run() (Report, error) {
	if err := e.validate(); err != nil {
		return Report{}, err
	}
	return e.runScheme(e.scheme)
}

func (e *Experiment) runScheme(s Scheme) (rep Report, err error) {
	k, err := s.kind()
	if err != nil {
		return Report{}, err
	}
	if err := e.checkCtx(); err != nil {
		return Report{}, err
	}
	// Panics from deep inside the harness (a bad pool grouping, a
	// malformed registered spec) must surface as errors with the panic
	// site attached, like the sweep engine's error rows — not crash the
	// caller's process.
	defer func() {
		if r := recover(); r != nil {
			rep, err = Report{}, fmt.Errorf("whirlpool: %s under %s panicked: %v\n%s", e.app, s, r, debug.Stack())
		}
	}()
	h := e.harness()
	// Resolve the trace up front: building can fail at run time (e.g. a
	// trace-sourced app whose .wtrc file is missing or corrupt), and that
	// must surface as an error, not a panic from deeper in the harness.
	if _, err := h.AppErr(e.app); err != nil {
		return Report{}, err
	}
	ro := experiments.RunOptions{Grouping: e.pools, NoBypass: e.disableBypass}
	if e.chip != nil {
		ro.Chip, err = e.chip.toNoc()
		if err != nil {
			return Report{}, err
		}
	}
	if e.autoClassify > 0 && s == Whirlpool {
		if err := e.checkClassifiable(); err != nil {
			return Report{}, err
		}
		ro.Grouping = h.WhirlToolGrouping(e.app, e.autoClassify, true)
	}
	r, err := h.RunSingle(e.app, k, ro)
	if err != nil {
		return Report{}, err
	}
	rep = report(e.app, s, r)
	if e.observer != nil {
		e.observer(rep)
	}
	return rep, nil
}

// Compare runs the app under every registered scheme (built-ins plus
// any added via scheme registration), observing each report as it
// lands.
func (e *Experiment) Compare() (map[Scheme]Report, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	all := Schemes()
	out := make(map[Scheme]Report, len(all))
	for _, s := range all {
		r, err := e.runScheme(s)
		if err != nil {
			return nil, err
		}
		out[s] = r
	}
	return out, nil
}

// Classify runs WhirlTool on the app and returns the discovered pools
// as groups of data-structure names.
func (e *Experiment) Classify(pools int) ([][]string, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	if pools < 1 {
		return nil, fmt.Errorf("whirlpool: classify needs at least 1 pool, got %d", pools)
	}
	if err := e.checkCtx(); err != nil {
		return nil, err
	}
	if err := e.checkClassifiable(); err != nil {
		return nil, err
	}
	spec, _ := workloads.ByName(e.app)
	h := e.harness()
	groups := h.WhirlToolGrouping(e.app, pools, true)
	out := make([][]string, len(groups))
	for i, g := range groups {
		for _, si := range g {
			if si >= 0 && si < len(spec.Structs) {
				out[i] = append(out[i], spec.Structs[si].Name)
			}
		}
	}
	return out, nil
}

// runParallelVariant backs RunParallel: parallel apps reuse the
// experiment's harness configuration (scale, seed, reconfig period) on
// the 16-core chip.
func (e *Experiment) runParallelVariant(v experiments.ParallelVariant, label Scheme) (Report, error) {
	if e.err != nil {
		return Report{}, e.err
	}
	if err := e.checkCtx(); err != nil {
		return Report{}, err
	}
	r, err := e.harness().RunParallel(e.app, v)
	if err != nil {
		return Report{}, err
	}
	rep := report(e.app, label, r)
	if e.observer != nil {
		e.observer(rep)
	}
	return rep, nil
}
