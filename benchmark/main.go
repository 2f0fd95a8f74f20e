// Command benchmark is the repository's end-to-end benchmark. It runs
// one workload — or every workload, each in its own child process —
// checks that the outputs are correct, and prints every metric by name
// with its unit: a table on stderr and, as the last line of stdout, one
// JSON object. From the repository root:
//
//	bash benchmark/run.sh --workload sweep-warm --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh                      # every workload, default seed
//
// README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"whirlpool/internal/experiments"
)

// workers is both GOMAXPROCS and every sweep's worker count: the
// benchmark models a two-core machine whatever the host has, so runs
// on different hosts measure the same concurrency.
const workers = 2

// minReps is the fewest timed repetitions a run makes, whatever its
// time budget.
const minReps = 3

// sizes are a run's input sizes.
type sizes struct {
	sweepApps    []string // sweep-cold and sweep-warm
	sweepScale   float64
	storeRecords int // sweep-cold's and serve's result stores
	mixCount     int
	mixScale     float64
	serveApps    []string // must hold readApp and resubmitApp
	serveScale   float64
	readRPS      float64 // serve's open loop
	pollRPS      float64
	resubmitRPS  float64
	// setups is how many times an end-to-end run sets up; setup_s is
	// their median.
	setups int
	// golden marks the size the golden rows were recorded at.
	golden bool
}

// fullSize is the benchmark proper. Ported apps with pools (delaunay,
// MIS, BFS, refine, mcf, lbm) plus two unported ones (omnet, xalanc)
// cover both classifiers Whirlpool uses. Serve's rates are those of
// docs/server.md's warm-mixed spec.
var fullSize = sizes{
	sweepApps:    []string{"delaunay", "MIS", "BFS", "refine", "mcf", "lbm", "omnet", "xalanc"},
	sweepScale:   0.05,
	storeRecords: 20000,
	mixCount:     2,
	mixScale:     0.01,
	serveApps:    []string{"delaunay", "MIS", "mcf", "omnet"},
	serveScale:   0.05,
	readRPS:      200,
	pollRPS:      40,
	resubmitRPS:  2,
	setups:       5,
	golden:       true,
}

// shortSize is a toy size that exercises every path in seconds.
var shortSize = sizes{
	sweepApps:    []string{"delaunay", "omnet"},
	sweepScale:   0.01,
	storeRecords: 1000,
	mixCount:     1,
	mixScale:     0.002,
	serveApps:    []string{"delaunay", "mcf"},
	serveScale:   0.01,
	readRPS:      200,
	pollRPS:      40,
	resubmitRPS:  10,
	setups:       1,
}

// env is one run's settings.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	size    sizes
	probe   *hostProbe
	// dir is the run's private scratch directory.
	dir string
	// goldenOut, when set, is where the run writes its golden rows
	// instead of checking them.
	goldenOut string
}

func (e *env) setupReps() int {
	if e.trace {
		return 1
	}
	return e.size.setups
}

// budgetLeft reports whether another repetition, as long as the median
// so far, still ends within the time budget.
func (e *env) budgetLeft(start time.Time, reps []repetition) bool {
	var walls []float64
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
	}
	return time.Since(start).Seconds()+median(walls) <= e.seconds
}

type workload struct {
	name string
	run  func(e *env) (*result, error)
}

// benchWorkloads are the workloads in BENCHMARK.json's order; README.md
// says why each exists.
var benchWorkloads = []workload{
	{sweepCold.name, sweepCold.run},
	{sweepWarm.name, sweepWarm.run},
	{mix16.name, mix16.run},
	{"serve", runServe},
}

//go:embed golden/*.json
var goldenFS embed.FS

// checkGolden compares the default seed's rows with the committed golden
// rows (one failed op per differing row), or writes them with
// -write-golden. Other seeds have no golden rows; their rows are checked
// across repetitions instead.
func (e *env) checkGolden(name string, rows []experiments.SweepRow, res *result) error {
	if e.seed != experiments.DefaultSeed || !e.size.golden {
		return nil
	}
	sim := make([]experiments.SweepRow, len(rows))
	for i, r := range rows {
		sim[i] = simColumns(r)
	}
	if e.goldenOut != "" {
		data, err := json.MarshalIndent(sim, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(e.goldenOut, name+".json"), append(data, '\n'), 0o666)
	}
	data, err := goldenFS.ReadFile("golden/" + name + ".json")
	if err != nil {
		return fmt.Errorf("no golden rows for %s: %w", name, err)
	}
	var want []experiments.SweepRow
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("golden/%s.json: %w", name, err)
	}
	if len(want) != len(sim) {
		res.fail(len(sim), "%d rows, golden has %d", len(sim), len(want))
		return nil
	}
	for i := range sim {
		if sim[i] != want[i] {
			res.fail(1, "%s/%s differs from its golden row", sim[i].App, sim[i].Scheme)
		}
	}
	return nil
}

// parallel calls fn on every item from `workers` goroutines and returns
// the first error.
func parallel[T any](items []T, fn func(T) error) error {
	ch := make(chan T)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				if err := fn(it); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, it := range items {
		ch <- it
	}
	close(ch)
	wg.Wait()
	return first
}

// freshHeap returns the previous phase's garbage, and the memory that
// held it, to the OS before the next set-up or timed phase starts, so
// each phase starts from a heap like a fresh process's and its peak
// resident set holds no leftovers. It is never timed.
func freshHeap() { debug.FreeOSMemory() }

// runtimeProbe watches the Go runtime over the timed span: GC cycles and
// pause time from MemStats, and the live heap's peak from a sampler.
type runtimeProbe struct {
	before, after runtime.MemStats
	done          chan struct{}
	wg            sync.WaitGroup
	peak          uint64
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{done: make(chan struct{})}
	runtime.ReadMemStats(&p.before)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				p.peak = max(p.peak, s[0].Value.Uint64())
			}
			select {
			case <-p.done:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *runtimeProbe) stop() {
	close(p.done)
	p.wg.Wait()
	runtime.ReadMemStats(&p.after)
}

func (p *runtimeProbe) report(res *result) {
	defs := perLayer()
	res.set(defs, "runtime.gc_cycles", float64(p.after.NumGC-p.before.NumGC), 0)
	res.set(defs, "runtime.gc_pause_ms", float64(p.after.PauseTotalNs-p.before.PauseTotalNs)/1e6, 0)
	res.set(defs, "runtime.heap_peak_mb", float64(p.peak)/(1<<20), 0)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "the workload to run; empty runs every workload, each in its own child process")
	seed := fs.Uint64("seed", experiments.DefaultSeed, "the workload seed (0 means the default)")
	seconds := fs.Float64("seconds", 20, "how long a run measures")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	short := fs.Bool("short", false, "toy input sizes: every path in seconds, no golden check")
	workdir := fs.String("workdir", ".bench_build/work", "where the run keeps its scratch files, removed when it ends")
	golden := fs.String("write-golden", "", "write the default seed's golden rows into this directory instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "benchmark: "+format+"\n", args...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return fail("unexpected arguments %q", fs.Args())
	case *traced != 0 && *traced != 1:
		return fail("-trace must be 0 or 1, got %d", *traced)
	case !(*seconds > 0) || math.IsInf(*seconds, 0):
		return fail("-seconds must be positive, got %g", *seconds)
	}
	if *seed == 0 {
		*seed = experiments.DefaultSeed // the daemon reads seed 0 as the default too
	}
	if *golden != "" && (*seed != experiments.DefaultSeed || *short) {
		return fail("-write-golden needs the default seed at full size")
	}
	runtime.GOMAXPROCS(workers)
	if *name == "" {
		return runAll([]string{
			"-seed", strconv.FormatUint(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(*traced), "-short=" + strconv.FormatBool(*short),
			"-workdir", *workdir, "-write-golden", *golden,
		}, stdout, stderr)
	}
	var wl *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			wl = &benchWorkloads[i]
		}
	}
	if wl == nil {
		var names []string
		for _, w := range benchWorkloads {
			names = append(names, w.name)
		}
		return fail("unknown workload %q (valid: %v)", *name, names)
	}
	e := &env{seed: *seed, seconds: *seconds, trace: *traced == 1, size: fullSize, goldenOut: *golden}
	if *short {
		e.size = shortSize
	}
	res, err := runWorkload(e, *wl, *workdir)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.name, err)
		return 1
	}
	res.printTable(stderr, wl.name, e.defs())
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

func (e *env) defs() []metricDef {
	if e.trace {
		return perLayer()
	}
	return endToEnd
}

// runWorkload runs wl in a fresh scratch directory under workdir and
// removes it afterwards.
func runWorkload(e *env, wl workload, workdir string) (*result, error) {
	if err := os.MkdirAll(workdir, 0o777); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, wl.name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.dir = dir
	if e.probe, err = newHostProbe(); err != nil {
		return nil, err
	}
	defer e.probe.close()
	res, err := wl.run(e)
	if err != nil {
		return nil, err
	}
	res.finish(e.defs())
	return res, nil
}

// runAll runs every workload in its own child process, so memory and
// cold state are per workload, and prints one JSON object holding every
// workload's result.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	all := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Workloads map[string]*result `json:"workloads"`
	}{Correct: true, Workloads: map[string]*result{}}
	for _, wl := range benchWorkloads {
		var out bytes.Buffer
		cmd := exec.Command(self, append([]string{"-workload", wl.name}, args...)...)
		cmd.Stdout = &out
		cmd.Stderr = stderr
		err := cmd.Run()
		var res result
		last := bytes.TrimSpace(out.Bytes())
		if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
			last = last[i+1:]
		}
		if json.Unmarshal(last, &res) != nil {
			fmt.Fprintf(stderr, "benchmark: %s printed no result: %v\n", wl.name, err)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		all.Workloads[wl.name] = &res
	}
	out, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !all.Correct {
		return 1
	}
	return 0
}
