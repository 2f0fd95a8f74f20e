// Package whirlpool is a library reproduction of "Whirlpool: Improving
// Dynamic Cache Management with Static Data Classification" (Mukkara,
// Beckmann & Sanchez, ASPLOS 2016).
//
// It provides:
//
//   - A pool-based memory allocator over a simulated address space
//     (internal/mem), the paper's pool_create / pool_malloc API: every
//     page belongs to one pool, and an address maps to its pool in O(1).
//   - A NUCA multicore simulator with a registry of last-level cache
//     organizations: the paper's six — S-NUCA (LRU and DRRIP),
//     IdealSPD, Awasthi et al., Jigsaw, and Whirlpool itself — plus
//     any registered at runtime.
//   - WhirlTool, the profile-guided automatic data classifier.
//   - PaWS, partitioned work-stealing for task-parallel workloads.
//   - The paper's benchmark suite as synthetic workloads, and runners
//     that regenerate every table and figure in the evaluation.
//
// Quick start:
//
//	rep, _ := whirlpool.New("delaunay", whirlpool.Whirlpool).Run()
//	base, _ := whirlpool.New("delaunay", whirlpool.Jigsaw).Run()
//	fmt.Printf("speedup: %.1f%%\n", 100*(base.Cycles/rep.Cycles-1))
//
// Experiments are configured with functional options (see New and the
// With* options in experiment.go).
package whirlpool

import (
	"fmt"
	"sync"

	"whirlpool/internal/experiments"
	"whirlpool/internal/paws"
	"whirlpool/internal/schemes"
	"whirlpool/internal/sim"
	"whirlpool/internal/spec"
	"whirlpool/internal/workloads"
)

// Scheme names a last-level cache organization by its stable
// identifier. Any identifier in Schemes() is runnable, including
// schemes registered outside this package.
type Scheme string

// The paper's six evaluated schemes.
const (
	SNUCALRU   Scheme = "snuca-lru"
	SNUCADRRIP Scheme = "snuca-drrip"
	IdealSPD   Scheme = "idealspd"
	Awasthi    Scheme = "awasthi"
	Jigsaw     Scheme = "jigsaw"
	Whirlpool  Scheme = "whirlpool"
)

// Schemes lists every registered scheme: the paper's six in
// presentation order, then any registered at runtime.
func Schemes() []Scheme {
	ids := schemes.KindIDs()
	out := make([]Scheme, len(ids))
	for i, id := range ids {
		out[i] = Scheme(id)
	}
	return out
}

// SchemeLabel returns the figure label for a scheme ("Whirlpool",
// "DRRIP", ...), or the raw identifier if unregistered.
func SchemeLabel(s Scheme) string { return schemes.Kind(s).String() }

func (s Scheme) kind() (schemes.Kind, error) {
	k, err := schemes.ParseKind(string(s))
	if err != nil {
		return "", fmt.Errorf("whirlpool: unknown scheme %q (valid: %v)", s, Schemes())
	}
	return k, nil
}

// Report summarizes one simulation run.
type Report struct {
	App    string
	Scheme Scheme
	// Cycles to complete the measured pass; IPC = Instrs/Cycles.
	Cycles float64
	Instrs float64
	IPC    float64
	// Data-movement energy in picojoules, by component.
	EnergyPJ        float64
	NetworkEnergyPJ float64
	BankEnergyPJ    float64
	MemoryEnergyPJ  float64
	// LLC behaviour.
	LLCAccesses uint64
	Hits        uint64
	Misses      uint64
	Bypasses    uint64
	APKI        float64
	MPKI        float64
}

func report(app string, s Scheme, r *sim.Result) Report {
	return Report{
		App:             app,
		Scheme:          s,
		Cycles:          float64(r.Cycles),
		Instrs:          float64(r.Instrs),
		IPC:             r.IPC(),
		EnergyPJ:        r.Energy.Total(),
		NetworkEnergyPJ: r.Energy.NetworkPJ,
		BankEnergyPJ:    r.Energy.BankPJ,
		MemoryEnergyPJ:  r.Energy.MemoryPJ,
		LLCAccesses:     r.Demand,
		Hits:            r.Hits,
		Misses:          r.Misses,
		Bypasses:        r.Bypasses,
		APKI:            r.TotalAccessesAPKI(),
		MPKI:            r.MPKI(),
	}
}

// harnessKey is the full harness configuration: harnesses are cached
// per key so repeated runs share traces, and a run with a different
// seed or reconfig period never silently reuses a mismatched harness.
type harnessKey struct {
	scale    float64
	seed     uint64
	reconfig uint64
}

func (k harnessKey) withDefaults() harnessKey {
	if k.seed == 0 {
		k.seed = experiments.DefaultSeed
	}
	if k.reconfig == 0 {
		k.reconfig = experiments.DefaultReconfigCycles
	}
	return k
}

var (
	harnessMu     sync.Mutex
	harnesses     = map[harnessKey]*experiments.Harness{}
	traceCacheDir string
)

func harnessFor(k harnessKey) *experiments.Harness {
	k = k.withDefaults()
	harnessMu.Lock()
	defer harnessMu.Unlock()
	h, ok := harnesses[k]
	if !ok {
		h = experiments.NewHarness(k.scale)
		h.Seed = k.seed
		h.ReconfigCycles = k.reconfig
		h.CacheDir = traceCacheDir
		harnesses[k] = h
	}
	return h
}

// SetTraceCacheDir points every harness (current and future) at an
// on-disk trace cache: generated traces are written there as
// content-addressed .wtrc files and streamed back by later runs and
// processes instead of being regenerated. Empty disables caching for
// future harnesses. The cache is safe to share between concurrent
// processes (writes are atomic) and to delete at any time.
func SetTraceCacheDir(dir string) {
	harnessMu.Lock()
	defer harnessMu.Unlock()
	traceCacheDir = dir
	//whirl:unordered same cache dir applied to every harness; order-independent
	for _, h := range harnesses {
		h.SetCacheDir(dir)
	}
}

// TraceCacheStats aggregates trace provenance over every harness: how
// many traces were generated in-process vs streamed from the trace
// cache.
func TraceCacheStats() (built, fromCache int64) {
	harnessMu.Lock()
	defer harnessMu.Unlock()
	//whirl:unordered commutative sums over every harness
	for _, h := range harnesses {
		s := h.CacheStats()
		built += s.Builds
		fromCache += s.DiskHits
	}
	return built, fromCache
}

// invalidateApps drops the named apps from every cached harness, so
// redefined workloads rebuild their traces on next use.
func invalidateApps(names []string) {
	harnessMu.Lock()
	defer harnessMu.Unlock()
	//whirl:unordered same invalidation applied to every harness; order-independent
	for _, h := range harnesses {
		h.Invalidate(names...)
	}
}

// Apps lists every runnable single-threaded app: the built-in suite
// (15 SPEC-like + 16 PBBS-like apps) plus any apps registered from
// spec files (LoadSpecFile).
func Apps() []string { return workloads.Names() }

// SpecApps lists only the apps registered from spec files.
func SpecApps() []string { return workloads.RegisteredNames() }

// SpecInfo summarizes a loaded spec file.
type SpecInfo struct {
	// Name labels the spec set (from the file, or the path).
	Name string
	// Apps are the registered app names, now runnable via New.
	Apps []string
	// Mixes maps each mix name to its member apps.
	Mixes map[string][]string
}

// LoadSpecFile parses a declarative workload-spec file (see
// docs/workload-specs.md) and registers its apps, making them runnable
// by name exactly like built-in suite apps. Apps with built-in names
// replace the built-in definition; cached traces for redefined apps
// are invalidated, so a replacement takes effect even after the app
// has already run.
func LoadSpecFile(path string) (*SpecInfo, error) {
	f, err := spec.Load(path)
	if err != nil {
		return nil, err
	}
	apps, err := f.Register()
	if err != nil {
		return nil, err
	}
	invalidateApps(apps)
	info := &SpecInfo{Name: f.Name, Apps: apps, Mixes: map[string][]string{}}
	if info.Name == "" {
		info.Name = path
	}
	for _, m := range f.Mixes {
		info.Mixes[m.Name] = m.Apps
	}
	return info, nil
}

// ParallelApps lists the task-parallel suite (Fig 13).
func ParallelApps() []string {
	var out []string
	for _, s := range paws.Specs() {
		out = append(out, s.Name)
	}
	return out
}

// ParallelVariant names a Fig 13 configuration.
type ParallelVariant string

// Fig 13's four configurations.
const (
	ParSNUCA         ParallelVariant = "snuca"
	ParJigsaw        ParallelVariant = "jigsaw"
	ParJigsawPaWS    ParallelVariant = "jigsaw+paws"
	ParWhirlpoolPaWS ParallelVariant = "whirlpool+paws"
)

// RunParallel simulates a task-parallel app on the 16-core chip. It
// takes the same options as New (scale, seed and reconfig period
// apply), so parallel runs share the harness cache with single-app
// runs at the same configuration.
func RunParallel(app string, variant ParallelVariant, opts ...Option) (Report, error) {
	var v experiments.ParallelVariant
	switch variant {
	case ParSNUCA:
		v = experiments.VariantSNUCA
	case ParJigsaw:
		v = experiments.VariantJigsaw
	case ParJigsawPaWS:
		v = experiments.VariantJigsawPaWS
	case ParWhirlpoolPaWS:
		v = experiments.VariantWhirlpoolPaWS
	default:
		return Report{}, fmt.Errorf("whirlpool: unknown variant %q", variant)
	}
	if _, ok := paws.SpecByName(app); !ok {
		return Report{}, fmt.Errorf("whirlpool: unknown parallel app %q (see ParallelApps())", app)
	}
	return New(app, Scheme(string(variant)), opts...).runParallelVariant(v, Scheme(string(variant)))
}
