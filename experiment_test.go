// Builder-API tests: the composable Experiment surface, the scheme
// registry's end-to-end path, chip topologies, and the harness cache
// contract.
package whirlpool_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"whirlpool"
	"whirlpool/internal/addr"
	"whirlpool/internal/cache"
	"whirlpool/internal/llc"
	"whirlpool/internal/schemes"
	"whirlpool/internal/trace"
)

func TestBuilderOptionErrorsDeferred(t *testing.T) {
	if _, err := whirlpool.New("mcf", whirlpool.Jigsaw, whirlpool.WithScale(-1)).Run(); err == nil {
		t.Fatal("negative scale did not error")
	}
	if _, err := whirlpool.New("mcf", whirlpool.Jigsaw, whirlpool.WithAutoClassify(0)).Run(); err == nil {
		t.Fatal("zero-pool auto-classify did not error")
	}
	if _, err := whirlpool.New("mcf", whirlpool.Jigsaw, whirlpool.WithReconfigCycles(0)).Run(); err == nil {
		t.Fatal("zero reconfig period did not error")
	}
	if _, err := whirlpool.New("mcf", whirlpool.Jigsaw,
		whirlpool.WithChip(whirlpool.Mesh(100, 2))).Run(); err == nil {
		t.Fatal("oversized mesh did not error")
	}
}

// The acceptance test for the open scheme registry: a scheme registered
// from outside internal/schemes runs end-to-end through Experiment.Run
// and shows up in the public scheme list (which whirlsim -list and
// whirlsweep -schemes render).
func TestExternalSchemeEndToEnd(t *testing.T) {
	const id = "ext-snuca-lru"
	if err := schemes.Register(id, "ExtLRU", func(o schemes.Options) llc.LLC {
		return schemes.NewSNUCA(o.Chip, o.Meter, cache.LRU)
	}); err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, s := range whirlpool.Schemes() {
		if s == whirlpool.Scheme(id) {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("%q missing from whirlpool.Schemes()", id)
	}
	if whirlpool.SchemeLabel(whirlpool.Scheme(id)) != "ExtLRU" {
		t.Fatalf("label = %q", whirlpool.SchemeLabel(whirlpool.Scheme(id)))
	}
	ext, err := whirlpool.New("delaunay", whirlpool.Scheme(id), whirlpool.WithScale(0.05)).Run()
	if err != nil {
		t.Fatal(err)
	}
	// The clone is built exactly like the built-in S-NUCA-LRU, so the
	// simulation must agree number for number.
	ref, err := whirlpool.New("delaunay", whirlpool.SNUCALRU, whirlpool.WithScale(0.05)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if ext.Cycles != ref.Cycles || ext.Hits != ref.Hits || ext.Misses != ref.Misses {
		t.Fatalf("external clone diverged from built-in: %+v vs %+v", ext, ref)
	}
}

func TestCustomChipTopology(t *testing.T) {
	r, err := whirlpool.New("delaunay", whirlpool.SNUCALRU,
		whirlpool.WithScale(0.05),
		whirlpool.WithChip(whirlpool.Mesh(6, 4).Cores(4)),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.LLCAccesses == 0 || r.Cycles <= 0 {
		t.Fatalf("empty run on custom chip: %+v", r)
	}
	// A tiny LLC must miss more than the paper's 25-bank chip.
	big, err := whirlpool.New("delaunay", whirlpool.SNUCALRU, whirlpool.WithScale(0.05)).Run()
	if err != nil {
		t.Fatal(err)
	}
	small, err := whirlpool.New("delaunay", whirlpool.SNUCALRU,
		whirlpool.WithScale(0.05),
		whirlpool.WithChip(whirlpool.Mesh(2, 2).BankKB(64)),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if small.Misses <= big.Misses {
		t.Fatalf("2x2/64KB chip misses (%d) should exceed the 5x5/512KB chip's (%d)",
			small.Misses, big.Misses)
	}
}

func TestChipPresetsAndParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int // cores
	}{
		{"4core", 4}, {"16core", 16}, {"16core:1024", 16},
		{"8x8", 4}, {"8x8:6", 6}, {"8x8:6:1024", 6},
	} {
		c, err := whirlpool.ParseChip(tc.in)
		if err != nil {
			t.Fatalf("ParseChip(%q): %v", tc.in, err)
		}
		if c.NCores() != tc.want {
			t.Fatalf("ParseChip(%q).NCores() = %d, want %d", tc.in, c.NCores(), tc.want)
		}
		// String must round-trip through ParseChip.
		if _, err := whirlpool.ParseChip(c.String()); err != nil {
			t.Fatalf("round trip of %q via %q: %v", tc.in, c.String(), err)
		}
	}
	// Strict parsing: trailing garbage and non-positive fields are
	// errors, never silent defaults.
	for _, bad := range []string{
		"bogus", "1x1", "8x8:0:32", "8x8:999", "8x8garbage", "8x8:0",
		"8x8:-2", "8x8:6:1024junk", "8x8:6:0", "8x8:6:1024:9", "4core:32", "4core:8:512",
	} {
		if _, err := whirlpool.ParseChip(bad); err == nil {
			t.Fatalf("ParseChip(%q) accepted bad topology", bad)
		}
	}
}

func TestWithSeedChangesWorkload(t *testing.T) {
	a, err := whirlpool.New("mcf", whirlpool.SNUCALRU, whirlpool.WithScale(0.05)).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := whirlpool.New("mcf", whirlpool.SNUCALRU,
		whirlpool.WithScale(0.05), whirlpool.WithSeed(12345)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles == b.Cycles && a.Hits == b.Hits && a.Misses == b.Misses {
		t.Fatal("different seeds produced identical runs: the harness cache is not keyed on seed")
	}
	// Same seed again: the cached harness must reproduce exactly.
	b2, err := whirlpool.New("mcf", whirlpool.SNUCALRU,
		whirlpool.WithScale(0.05), whirlpool.WithSeed(12345)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if b != b2 {
		t.Fatalf("same-seed rerun diverged:\n%+v\n%+v", b, b2)
	}
}

func TestWithReconfigCyclesKeyed(t *testing.T) {
	a, err := whirlpool.New("lbm", whirlpool.Whirlpool, whirlpool.WithScale(0.05)).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := whirlpool.New("lbm", whirlpool.Whirlpool,
		whirlpool.WithScale(0.05), whirlpool.WithReconfigCycles(250_000)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles == b.Cycles {
		t.Fatal("a 8x shorter reconfig period changed nothing: the harness cache ignores it")
	}
}

func TestWithContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := whirlpool.New("mcf", whirlpool.Jigsaw,
		whirlpool.WithScale(0.05), whirlpool.WithContext(ctx)).Run(); err == nil {
		t.Fatal("canceled context did not abort the run")
	}
}

func TestWithObserverStreams(t *testing.T) {
	var seen []whirlpool.Report
	e := whirlpool.New("delaunay", whirlpool.Whirlpool,
		whirlpool.WithScale(0.05),
		whirlpool.WithObserver(func(r whirlpool.Report) { seen = append(seen, r) }))
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != r {
		t.Fatalf("observer saw %d reports, want exactly the returned one", len(seen))
	}
	seen = nil
	m, err := e.Compare()
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(m) {
		t.Fatalf("observer saw %d reports for a %d-scheme compare", len(seen), len(m))
	}
}

// Satellite: registering a spec that redefines an already-run app must
// invalidate the cached trace, so the redefinition takes effect.
func TestSpecReloadInvalidatesHarnessCache(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, accesses int) string {
		path := filepath.Join(dir, name)
		data := []byte(`{
  "version": 1,
  "apps": [{
    "name": "reloadtest",
    "accesses": ` + strconv.Itoa(accesses) + `,
    "structs": [{"name": "buf", "bytes": "1MB", "pattern": "seq"}]
  }]
}`)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := whirlpool.LoadSpecFile(write("v1.json", 200_000)); err != nil {
		t.Fatal(err)
	}
	r1, err := whirlpool.New("reloadtest", whirlpool.SNUCALRU).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Redefine the app with twice the work, after it has already run.
	if _, err := whirlpool.LoadSpecFile(write("v2.json", 400_000)); err != nil {
		t.Fatal(err)
	}
	r2, err := whirlpool.New("reloadtest", whirlpool.SNUCALRU).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Instrs <= r1.Instrs {
		t.Fatalf("redefinition ignored: instrs %v -> %v (stale cached trace)", r1.Instrs, r2.Instrs)
	}
}

// A trace-sourced app whose .wtrc file is missing must fail with a
// clean error through the public API, never a panic.
func TestRunTraceAppMissingFileErrors(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(specPath,
		[]byte(`{"apps":[{"name":"ghost-trace","source":"trace","trace":"ghost.wtrc"}]}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := whirlpool.LoadSpecFile(specPath); err != nil {
		t.Fatal(err)
	}
	_, err := whirlpool.New("ghost-trace", whirlpool.Jigsaw).Run()
	if err == nil || !strings.Contains(err.Error(), "ghost.wtrc") {
		t.Fatalf("missing trace file: err = %v, want a named-file error", err)
	}
}

// An empty recorded trace runs in zero cycles: its Report must carry
// IPC 0, not NaN, so it still marshals as JSON.
func TestRunEmptyTraceReportMarshals(t *testing.T) {
	dir := t.TempDir()
	wtrc := filepath.Join(dir, "empty.wtrc")
	if err := trace.WriteFile(wtrc, &trace.LLCTrace{}); err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(dir, "s.json")
	if err := os.WriteFile(spec,
		[]byte(`{"apps":[{"name":"empty-trace","source":"trace","trace":"`+wtrc+`"}]}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := whirlpool.LoadSpecFile(spec); err != nil {
		t.Fatal(err)
	}
	r, err := whirlpool.New("empty-trace", whirlpool.Jigsaw).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC != 0 {
		t.Fatalf("IPC = %v, want 0", r.IPC)
	}
	if _, err := json.Marshal(r); err != nil {
		t.Fatal(err)
	}
}

// A trace-sourced app whose delta column is corrupt behind a valid CRC
// opens fine but cannot be replayed: Run must return the cursor's
// error, not a panic and not a report over a truncated trace.
func TestRunTraceAppCorruptColumnErrors(t *testing.T) {
	dir := t.TempDir()
	tr := &trace.LLCTrace{}
	for i := 0; i < 100; i++ {
		tr.Append(trace.LLCAccess{Line: addr.Line(i * 64), Gap: 30})
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := 80 + 50; i < 80+62; i++ { // mid delta column: a run-on varint
		data[i] = 0xff
	}
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	wtrc := filepath.Join(dir, "bad.wtrc")
	spec := filepath.Join(dir, "s.json")
	if err := os.WriteFile(wtrc, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spec,
		[]byte(`{"apps":[{"name":"corrupt-trace","source":"trace","trace":"`+wtrc+`"}]}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := whirlpool.LoadSpecFile(spec); err != nil {
		t.Fatal(err)
	}
	_, err := whirlpool.New("corrupt-trace", whirlpool.Jigsaw).Run()
	if err == nil || !strings.Contains(err.Error(), "corrupt .wtrc delta column") || strings.Contains(err.Error(), "panicked") {
		t.Fatalf("corrupt trace column: err = %v, want the cursor's error", err)
	}
}

// WhirlTool classification needs the synthetic generator: on a
// trace-sourced app it must error, not profile an empty stream.
func TestClassifyTraceAppErrors(t *testing.T) {
	dir := t.TempDir()
	wtrc := filepath.Join(dir, "t.wtrc")
	tr := &trace.LLCTrace{}
	for i := 0; i < 100; i++ {
		tr.Append(trace.LLCAccess{Line: addr.Line(i * 64), Gap: 30})
	}
	tr.Instrs = 3000
	if err := trace.WriteFile(wtrc, tr); err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(dir, "s.json")
	if err := os.WriteFile(spec,
		[]byte(`{"apps":[{"name":"cls-trace","source":"trace","trace":"`+wtrc+`"}]}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := whirlpool.LoadSpecFile(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := whirlpool.New("cls-trace", whirlpool.Whirlpool).Classify(3); err == nil ||
		!strings.Contains(err.Error(), "classify trace-sourced") {
		t.Fatalf("Classify on trace app: err = %v", err)
	}
	if _, err := whirlpool.New("cls-trace", whirlpool.Whirlpool, whirlpool.WithAutoClassify(2)).Run(); err == nil ||
		!strings.Contains(err.Error(), "classify trace-sourced") {
		t.Fatalf("auto-classify Run on trace app: err = %v", err)
	}
	// Without auto-classify the same app must simply run.
	if _, err := whirlpool.New("cls-trace", whirlpool.Whirlpool).Run(); err != nil {
		t.Fatalf("plain run of trace app: %v", err)
	}
}

// TestRunPanicsBecomeErrors: the same failure class the sweep engine
// converts into error rows (a pool grouping referencing a struct index
// that does not exist) must surface from the public Run path as an
// error naming the panic site — not crash the caller's process.
func TestRunPanicsBecomeErrors(t *testing.T) {
	_, err := whirlpool.New("delaunay", whirlpool.Whirlpool,
		whirlpool.WithPools([]int{99}),
	).Run()
	if err == nil {
		t.Fatal("out-of-range pool grouping: Run returned nil error")
	}
	if !strings.Contains(err.Error(), "bad struct index") {
		t.Errorf("error lost the panic value: %v", err)
	}
	if !strings.Contains(err.Error(), "CallpointPools") {
		t.Errorf("error lost the panic site stack: %.200v", err)
	}
	// Compare goes through the same guarded path.
	if _, err := whirlpool.New("delaunay", whirlpool.Whirlpool,
		whirlpool.WithPools([]int{99})).Compare(); err == nil {
		t.Fatal("Compare with a panicking cell returned nil error")
	}
}
