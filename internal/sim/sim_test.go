package sim

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"whirlpool/internal/addr"
	"whirlpool/internal/energy"
	"whirlpool/internal/llc"
	"whirlpool/internal/mem"
	"whirlpool/internal/trace"
)

// fakeLLC is a deterministic stub: hits every even line with fixed
// latency, misses odd lines.
type fakeLLC struct {
	hitLat, missLat uint64
	ticks           int
	accesses        int
}

func (f *fakeLLC) Name() string { return "fake" }

func (f *fakeLLC) Access(core int, a trace.LLCAccess) (uint64, llc.Outcome) {
	f.accesses++
	if a.Writeback {
		return 0, llc.Miss
	}
	if a.Line%2 == 0 {
		return f.hitLat, llc.Hit
	}
	return f.missLat, llc.Miss
}

func (f *fakeLLC) Tick(uint64) { f.ticks++ }

// mkMixedTrace builds a trace with writebacks and writes so a run
// exercises every access kind.
func mkMixedTrace(n int, gap uint32, stride int) *trace.LLCTrace {
	t := &trace.LLCTrace{}
	for i := 0; i < n; i++ {
		t.Append(trace.LLCAccess{Line: addr.Line(i * stride), Gap: gap, Write: i%3 == 0})
		t.Instrs += uint64(gap)
		if i%5 == 0 {
			t.Append(trace.LLCAccess{Line: addr.Line(i), Writeback: true})
		}
	}
	return t
}

// mustRun is Run for configurations whose traces cannot fail.
func mustRun(t testing.TB, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mkTrace(n int, gap uint32) *trace.LLCTrace {
	t := &trace.LLCTrace{}
	for i := 0; i < n; i++ {
		t.Append(trace.LLCAccess{Line: addr.Line(i), Gap: gap})
		t.Instrs += uint64(gap)
	}
	return t
}

func TestRunCountsOutcomes(t *testing.T) {
	f := &fakeLLC{hitLat: 10, missLat: 100}
	r := mustRun(t, Config{
		LLC:    f,
		Meter:  &energy.Meter{},
		Traces: []trace.Reader{mkTrace(1000, 10)},
	})
	if r.Hits != 500 || r.Misses != 500 {
		t.Fatalf("hits=%d misses=%d", r.Hits, r.Misses)
	}
	if r.Demand != 1000 {
		t.Fatalf("demand=%d", r.Demand)
	}
	if r.Instrs != 10000 {
		t.Fatalf("instrs=%d", r.Instrs)
	}
}

func TestRunCycleAccounting(t *testing.T) {
	f := &fakeLLC{hitLat: 10, missLat: 100}
	r := mustRun(t, Config{
		LLC:    f,
		Meter:  &energy.Meter{},
		Traces: []trace.Reader{mkTrace(100, 10)},
	})
	// 100 accesses x 10 instrs x 0.5 CPI = 500 base cycles,
	// + (50x10 + 50x100) x LLCStallFactor = 2750 stall cycles.
	want := uint64(500) + uint64(float64(50*10+50*100)*trace.LLCStallFactor)
	if r.Cycles != want {
		t.Fatalf("cycles=%d want %d", r.Cycles, want)
	}
}

func TestRunTickCadence(t *testing.T) {
	f := &fakeLLC{hitLat: 10, missLat: 100}
	mustRun(t, Config{
		LLC:       f,
		Meter:     &energy.Meter{},
		Traces:    []trace.Reader{mkTrace(10000, 100)},
		TickEvery: 10_000,
	})
	if f.ticks < 10 {
		t.Fatalf("ticks=%d, want many", f.ticks)
	}
}

func TestRunMultiCoreInterleaving(t *testing.T) {
	f := &fakeLLC{hitLat: 10, missLat: 100}
	r := mustRun(t, Config{
		LLC:   f,
		Meter: &energy.Meter{},
		Traces: []trace.Reader{
			mkTrace(500, 10),
			mkTrace(500, 10),
			nil, // idle core
		},
	})
	if len(r.Cores) != 3 {
		t.Fatalf("cores=%d", len(r.Cores))
	}
	if r.Cores[0].Demand != 500 || r.Cores[1].Demand != 500 {
		t.Fatal("per-core demand wrong")
	}
	if r.Cores[2].Demand != 0 {
		t.Fatal("idle core has accesses")
	}
}

func TestRunLoopFixedWork(t *testing.T) {
	// Core 1's trace is half as long: under Loop it must keep running
	// until core 0 finishes, but its frozen stats cover one pass only.
	f := &fakeLLC{hitLat: 10, missLat: 10}
	r := mustRun(t, Config{
		LLC:   f,
		Meter: &energy.Meter{},
		Traces: []trace.Reader{
			mkTrace(1000, 10),
			mkTrace(100, 10),
		},
		Loop: true,
	})
	if r.Cores[1].Demand != 100 {
		t.Fatalf("core 1 frozen demand = %d, want 100", r.Cores[1].Demand)
	}
	// The LLC saw more than one pass of core 1's accesses.
	if f.accesses <= 1100 {
		t.Fatalf("LLC accesses = %d; looping did not happen", f.accesses)
	}
}

func TestRunWarmupResetsCounters(t *testing.T) {
	f := &fakeLLC{hitLat: 10, missLat: 100}
	m := &energy.Meter{}
	r := mustRun(t, Config{
		LLC:    f,
		Meter:  m,
		Traces: []trace.Reader{mkTrace(200, 10)},
		Warmup: true,
	})
	// The LLC processed two passes (warmup + measured)...
	if f.accesses != 400 {
		t.Fatalf("LLC saw %d accesses, want 400", f.accesses)
	}
	// ...but results cover exactly one.
	if r.Demand != 200 {
		t.Fatalf("demand=%d, want 200", r.Demand)
	}
	base := uint64(float64(200*10) * trace.BaseCPI)
	stall := uint64(float64(100*10+100*100) * trace.LLCStallFactor)
	if r.Cycles != base+stall {
		t.Fatalf("cycles=%d want %d", r.Cycles, base+stall)
	}
}

func TestRunWritebacksDoNotStall(t *testing.T) {
	f := &fakeLLC{hitLat: 10, missLat: 100}
	tr := &trace.LLCTrace{}
	tr.Append(trace.LLCAccess{Line: 2, Gap: 10})
	tr.Append(trace.LLCAccess{Line: 4, Writeback: true})
	tr.Instrs = 10
	r := mustRun(t, Config{LLC: f, Meter: &energy.Meter{}, Traces: []trace.Reader{tr}})
	if r.Cores[0].Writebacks != 1 {
		t.Fatalf("writebacks=%d", r.Cores[0].Writebacks)
	}
	want := uint64(float64(10)*trace.BaseCPI) + uint64(float64(10)*trace.LLCStallFactor)
	if r.Cycles != want {
		t.Fatalf("cycles=%d want %d (writeback must not stall)", r.Cycles, want)
	}
}

func TestRunPerPoolCounters(t *testing.T) {
	f := &fakeLLC{hitLat: 10, missLat: 100}
	r := mustRun(t, Config{
		LLC:    f,
		Meter:  &energy.Meter{},
		Traces: []trace.Reader{mkTrace(100, 10)},
		PoolOf: func(l addr.Line) mem.PoolID {
			return mem.PoolID(uint64(l) % 2)
		},
		NumPools: 2,
	})
	if r.PoolAccesses[0] != 50 || r.PoolAccesses[1] != 50 {
		t.Fatalf("pool accesses %v", r.PoolAccesses)
	}
	// Odd lines miss in fakeLLC.
	if r.PoolMisses[1] != 50 || r.PoolMisses[0] != 0 {
		t.Fatalf("pool misses %v", r.PoolMisses)
	}
}

func TestEmptyRun(t *testing.T) {
	f := &fakeLLC{}
	r := mustRun(t, Config{LLC: f, Meter: &energy.Meter{}, Traces: []trace.Reader{nil}})
	if r.Demand != 0 || r.Cycles != 0 {
		t.Fatal("empty run should be empty")
	}
}

// A zero-access run finishes in zero cycles; its IPC must be 0, not the
// NaN of 0/0 that json.Marshal rejects.
func TestZeroAccessIPC(t *testing.T) {
	r := mustRun(t, Config{LLC: &fakeLLC{}, Meter: &energy.Meter{}, Traces: []trace.Reader{&trace.LLCTrace{}}})
	if r.Cycles != 0 {
		t.Fatalf("zero-access run took %d cycles", r.Cycles)
	}
	if ipc := r.IPC(); ipc != 0 {
		t.Fatalf("IPC = %v, want 0", ipc)
	}
	if _, err := json.Marshal(r.IPC()); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerEmptyAndIdle keeps the degenerate paths working around a
// live run: all-idle configs and zero-access traces (with warmup) do no
// work, and an idle run after a live one matches a fresh idle run.
func TestRunnerEmptyAndIdle(t *testing.T) {
	f := &fakeLLC{}
	r := mustRun(t, Config{LLC: f, Meter: &energy.Meter{}, Traces: []trace.Reader{nil, &trace.LLCTrace{}}, Warmup: true})
	if r.Demand != 0 || r.Cycles != 0 || f.accesses != 0 || f.ticks != 0 {
		t.Fatalf("idle run did work: %+v (LLC accesses %d, ticks %d)", r, f.accesses, f.ticks)
	}
	tr := mkMixedTrace(50, 5, 1)
	if res := mustRun(t, Config{LLC: &fakeLLC{hitLat: 1, missLat: 2}, Meter: &energy.Meter{}, Traces: []trace.Reader{tr}}); res.Demand == 0 {
		t.Fatal("live run after idle run did nothing")
	}
	idle := func() *Result {
		return mustRun(t, Config{LLC: &fakeLLC{}, Meter: &energy.Meter{}, Traces: []trace.Reader{nil}})
	}
	if got, want := idle(), idle(); !reflect.DeepEqual(got, want) {
		t.Fatalf("idle run after live run: got %+v, want %+v", got, want)
	}
}

// TestRunConcurrent runs simulations in parallel over shared read-only
// traces (the sweep worker topology) and requires identical results —
// the arrangement make race exercises.
func TestRunConcurrent(t *testing.T) {
	tr1 := mkMixedTrace(400, 10, 2)
	tr2 := mkMixedTrace(300, 7, 3)
	run := func() *Result {
		return mustRun(t, Config{LLC: &fakeLLC{hitLat: 10, missLat: 100}, Meter: &energy.Meter{},
			Traces: []trace.Reader{tr1, tr2}, Loop: true, Warmup: true})
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				if got := run(); !reflect.DeepEqual(want, got) {
					t.Errorf("concurrent run diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// recordingLLC records the line sequence it sees, for replay-identity
// checks across cursor resets.
type recordingLLC struct {
	fakeLLC
	lines []addr.Line
}

func (r *recordingLLC) Access(core int, a trace.LLCAccess) (uint64, llc.Outcome) {
	r.lines = append(r.lines, a.Line)
	return r.fakeLLC.Access(core, a)
}

// TestRunWarmupReplayIsIdentical drives Warmup through the cursor path:
// the measured pass must see exactly the access sequence the warmup pass
// saw (Cursor.Reset rewinds losslessly).
func TestRunWarmupReplayIsIdentical(t *testing.T) {
	r := &recordingLLC{fakeLLC: fakeLLC{hitLat: 10, missLat: 100}}
	mustRun(t, Config{
		LLC:    r,
		Meter:  &energy.Meter{},
		Traces: []trace.Reader{mkTrace(300, 10)},
		Warmup: true,
	})
	if len(r.lines) != 600 {
		t.Fatalf("LLC saw %d accesses, want 600 (2 passes)", len(r.lines))
	}
	for i := 0; i < 300; i++ {
		if r.lines[i] != r.lines[300+i] {
			t.Fatalf("measured pass diverges at %d: warmup %d, measured %d",
				i, r.lines[i], r.lines[300+i])
		}
	}
}

// TestRunWarmupCountersStartFromZero pins the warmup contract under the
// cursor: per-core counters cover exactly the measured pass, and cycle
// accounting restarts at the warm boundary.
func TestRunWarmupCountersStartFromZero(t *testing.T) {
	f := &fakeLLC{hitLat: 10, missLat: 100}
	m := &energy.Meter{}
	r := mustRun(t, Config{
		LLC:    f,
		Meter:  m,
		Traces: []trace.Reader{mkTrace(200, 10)},
		Warmup: true,
	})
	c := r.Cores[0]
	if c.Instrs != 2000 {
		t.Fatalf("core instrs = %d, want 2000 (one measured pass)", c.Instrs)
	}
	if c.Demand != 200 || c.Hits != 100 || c.Misses != 100 {
		t.Fatalf("core counters = %+v, want one pass of 200 accesses", c)
	}
	// Cycles exclude the warmup pass: base + stalls of one pass only
	// (mkTrace has no L2 hits, so no L2 stall term).
	base := uint64(float64(2000) * trace.BaseCPI)
	stall := uint64(float64(100*10+100*100) * trace.LLCStallFactor)
	if c.Cycles != base+stall {
		t.Fatalf("core cycles = %d, want %d", c.Cycles, base+stall)
	}
}

// TestRunLoopStatsFreezeAtFirstCompletion pins the fixed-work contract
// under the cursor: the short core keeps replaying (cursor resets) until
// the long core finishes, but its stats cover exactly its first pass.
func TestRunLoopStatsFreezeAtFirstCompletion(t *testing.T) {
	r := &recordingLLC{fakeLLC: fakeLLC{hitLat: 10, missLat: 10}}
	res := mustRun(t, Config{
		LLC:   r,
		Meter: &energy.Meter{},
		Traces: []trace.Reader{
			mkTrace(1000, 10),
			trace.Offset(mkTrace(100, 10), 1<<20),
		},
		Loop: true,
	})
	c1 := res.Cores[1]
	if c1.Demand != 100 || c1.Instrs != 1000 {
		t.Fatalf("short core frozen stats = %+v, want first pass only", c1)
	}
	if c1.Hits != 50 || c1.Misses != 50 {
		t.Fatalf("short core hit/miss = %d/%d, want 50/50", c1.Hits, c1.Misses)
	}
	// The short core's replayed passes see the same lines each time.
	var short []addr.Line
	for _, l := range r.lines {
		if l >= 1<<20 {
			short = append(short, l-1<<20)
		}
	}
	// The run stops when the long core finishes, so the short core's
	// final pass may be partial — but every replayed access must match.
	if len(short) < 200 {
		t.Fatalf("short core replayed %d accesses, want >= 200", len(short))
	}
	for i, l := range short {
		if l != addr.Line(i%100) {
			t.Fatalf("short core pass diverges at %d: got %d", i, l)
		}
	}
}

// TestRunWarmupThenLoop combines both passes: warmup rewinds every
// cursor, then the fixed-work loop replays from the start.
func TestRunWarmupThenLoop(t *testing.T) {
	f := &fakeLLC{hitLat: 10, missLat: 10}
	r := mustRun(t, Config{
		LLC:   f,
		Meter: &energy.Meter{},
		Traces: []trace.Reader{
			mkTrace(400, 10),
			mkTrace(100, 10),
		},
		Loop:   true,
		Warmup: true,
	})
	if r.Cores[0].Demand != 400 || r.Cores[1].Demand != 100 {
		t.Fatalf("frozen demand = %d/%d, want 400/100",
			r.Cores[0].Demand, r.Cores[1].Demand)
	}
	// Warmup pass (500) + measured fixed-work (core0 400, core1 >= 400).
	if f.accesses < 1300 {
		t.Fatalf("LLC accesses = %d, want >= 1300", f.accesses)
	}
}

// TestRunOffsetTrace replays an offset reader (the mix path) and checks
// the LLC sees shifted lines.
func TestRunOffsetTrace(t *testing.T) {
	r := &recordingLLC{fakeLLC: fakeLLC{hitLat: 10, missLat: 10}}
	base := mkTrace(10, 10)
	mustRun(t, Config{
		LLC:    r,
		Meter:  &energy.Meter{},
		Traces: []trace.Reader{trace.Offset(base, 1<<44)},
	})
	for i, l := range r.lines {
		if l != addr.Line(i)+1<<44 {
			t.Fatalf("offset line %d = %d", i, l)
		}
	}
}

// TestRunStoppedCursorIsError replays a mapped trace whose mapping is
// closed, directly and through a mix offset, with and without warmup:
// the run must fail with the cursor's error instead of feeding the LLC
// zero-valued accesses and reporting success.
func TestRunStoppedCursorIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wtrc")
	if err := trace.WriteFile(path, mkMixedTrace(100, 10, 3)); err != nil {
		t.Fatal(err)
	}
	m, err := trace.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	for _, tr := range []trace.Reader{m, trace.Offset(m, 1<<44)} {
		for _, warm := range []bool{false, true} {
			f := &fakeLLC{}
			_, err := Run(Config{LLC: f, Meter: &energy.Meter{}, Traces: []trace.Reader{mkTrace(10, 10), tr}, Warmup: warm})
			if !errors.Is(err, trace.ErrClosed) || !strings.Contains(err.Error(), "core 1") {
				t.Fatalf("warmup=%v: err = %v, want core 1's ErrClosed", warm, err)
			}
		}
	}
}
