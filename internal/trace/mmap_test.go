package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"whirlpool/internal/addr"
	"whirlpool/internal/trace"
	"whirlpool/internal/workloads"
)

// writeWTRC dumps tr to a .wtrc file under a fresh temp dir.
func writeWTRC(t *testing.T, tr *trace.LLCTrace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.wtrc")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedBitIdentityBuiltins writes every built-in app's filtered
// trace to a file and requires the mapped file to replay the identical
// stream and stats — the invariant that lets the harness serve cache
// hits in place of freshly filtered traces.
func TestMappedBitIdentityBuiltins(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison is not short")
	}
	for _, spec := range workloads.Specs() {
		w := workloads.Build(spec, 0.002)
		tr := trace.FilterPrivate(w.Stream(1))
		path := writeWTRC(t, tr)
		mapped, err := trace.OpenMapped(path)
		if err != nil {
			t.Fatalf("%s: OpenMapped: %v", spec.Name, err)
		}
		sameTrace(t, spec.Name+" mapped", tr, mapped)
		if mapped.DemandAccesses() != tr.DemandAccesses() || mapped.LLCAPKI() != tr.LLCAPKI() ||
			mapped.EncodedBytes() != tr.EncodedBytes() {
			t.Fatalf("%s: mapped derived stats diverge", spec.Name)
		}
		if err := mapped.Close(); err != nil {
			t.Fatalf("%s: Close: %v", spec.Name, err)
		}
	}
}

// TestMappedFallbackBitIdentity forces the io fallback (no mmap) and
// requires identical behaviour from the same API.
func TestMappedFallbackBitIdentity(t *testing.T) {
	trace.SetMmapDisabledForTest(true)
	defer trace.SetMmapDisabledForTest(false)
	w := workloads.Build(mustSpec(t, "delaunay"), 0.01)
	tr := trace.FilterPrivate(w.Stream(1))
	path := writeWTRC(t, tr)
	mapped, err := trace.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if mapped.Mapped() {
		t.Fatal("fallback path reports a real mapping")
	}
	sameTrace(t, "fallback", tr, mapped)
}

// TestMappedIsMapped asserts the real-mmap path engages on this
// platform (unix CI): the zero-copy claim depends on it.
func TestMappedIsMapped(t *testing.T) {
	tr := &trace.LLCTrace{}
	tr.Append(trace.LLCAccess{Line: 1, Gap: 1})
	mapped, err := trace.OpenMapped(writeWTRC(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !mapped.Mapped() {
		t.Skip("mmap unavailable on this platform")
	}
}

// TestMappedCursorReset rewinds a mapped cursor mid-stream and after
// exhaustion (the simulator's warmup and Loop rewinds) and requires the
// replay to match a fresh cursor exactly.
func TestMappedCursorReset(t *testing.T) {
	w := workloads.Build(mustSpec(t, "delaunay"), 0.005)
	tr := trace.FilterPrivate(w.Stream(1))
	mapped, err := trace.OpenMapped(writeWTRC(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	cur := mapped.NewCursor()
	for i := 0; i < mapped.NumAccesses()/3; i++ {
		cur.Next() // partial pass (warmup abandoned mid-way)
	}
	cur.Reset()
	ref := mapped.NewCursor()
	for i := 0; ; i++ {
		a, ok := cur.Next()
		b, okb := ref.Next()
		if ok != okb || a != b {
			t.Fatalf("post-Reset access %d: %+v/%v != %+v/%v", i, a, ok, b, okb)
		}
		if !ok {
			break
		}
	}
	// Full pass then Reset (the Loop rewind): must replay identically.
	cur.Reset()
	n := 0
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
		n++
	}
	if n != mapped.NumAccesses() {
		t.Fatalf("second full pass saw %d accesses, want %d", n, mapped.NumAccesses())
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("clean replay left cursor error %v", err)
	}
}

// TestMappedConcurrentCursors runs many cursors over one mapping at
// once; each must see the full, identical stream (cursors share bytes
// but no mutable state).
func TestMappedConcurrentCursors(t *testing.T) {
	w := workloads.Build(mustSpec(t, "delaunay"), 0.005)
	tr := trace.FilterPrivate(w.Stream(1))
	mapped, err := trace.OpenMapped(writeWTRC(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	want := uint64(0)
	for cur := tr.NewCursor(); ; {
		a, ok := cur.Next()
		if !ok {
			break
		}
		want += uint64(a.Line) + uint64(a.Gap)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum, n := uint64(0), 0
			for cur := mapped.NewCursor(); ; {
				a, ok := cur.Next()
				if !ok {
					break
				}
				sum += uint64(a.Line) + uint64(a.Gap)
				n++
			}
			if n != mapped.NumAccesses() || sum != want {
				t.Errorf("concurrent cursor saw %d accesses (sum %d), want %d (sum %d)",
					n, sum, mapped.NumAccesses(), want)
			}
		}()
	}
	wg.Wait()
}

// TestMappedUseAfterClose requires clean errors — never a fault — from
// cursors used after the mapping is released, whichever side of Close
// they were created on.
func TestMappedUseAfterClose(t *testing.T) {
	tr := &trace.LLCTrace{}
	for i := 0; i < 100; i++ {
		tr.Append(trace.LLCAccess{Line: addr.Line(i), Gap: 1})
	}
	mapped, err := trace.OpenMapped(writeWTRC(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	before := mapped.NewCursor()
	if _, ok := before.Next(); !ok {
		t.Fatal("cursor dead before Close")
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, ok := before.Next(); ok {
		t.Fatal("Next succeeded after Close")
	}
	if err := before.Err(); !errors.Is(err, trace.ErrClosed) {
		t.Fatalf("pre-Close cursor error = %v, want ErrClosed", err)
	}
	after := mapped.NewCursor()
	if _, ok := after.Next(); ok {
		t.Fatal("post-Close cursor returned an access")
	}
	if err := after.Err(); !errors.Is(err, trace.ErrClosed) {
		t.Fatalf("post-Close cursor error = %v, want ErrClosed", err)
	}
	// Reset does not resurrect a closed mapping.
	before.Reset()
	if _, ok := before.Next(); ok {
		t.Fatal("Reset revived a closed cursor")
	}
	// Nor can the closed trace be re-recorded.
	if err := trace.WriteFile(filepath.Join(t.TempDir(), "x.wtrc"), mapped); !errors.Is(err, trace.ErrClosed) {
		t.Fatalf("WriteFile after Close: err = %v, want ErrClosed", err)
	}
	if mapped.NumAccesses() != 100 || mapped.EncodedBytes() == 0 {
		t.Fatal("accessors must keep answering from the header after Close")
	}
}

// damage is one broken variant of a valid encoding.
type damage struct {
	name string
	data []byte
}

// damaged returns data cut short at every region and with one byte
// flipped in every region.
func damaged(data []byte) []damage {
	var out []damage
	for _, cut := range []int{0, 1, 3, 4, 7, 8, 20, 79, 80, len(data) / 4, len(data) / 2, len(data) - 5, len(data) - 3, len(data) - 1} {
		out = append(out, damage{fmt.Sprintf("cut %d", cut), data[:cut]})
	}
	for _, pos := range []int{0, 4, 8, 16, 40, 80, len(data) / 2, len(data) - 2} {
		bad := bytes.Clone(data)
		bad[pos] ^= 0x5a
		out = append(out, damage{fmt.Sprintf("flip at %d", pos), bad})
	}
	return out
}

// TestMappedErrorParity truncates and corrupts a file at every region
// and requires the mmap path, the io fallback and the in-memory parse
// to fail alike, with a known error class in the message.
func TestMappedErrorParity(t *testing.T) {
	dir := t.TempDir()
	classOf := func(err error) string {
		for _, class := range []string{
			"not a .wtrc trace", "unsupported .wtrc version", "truncated header",
			"truncated delta column", "truncated gap column", "truncated flag bitsets",
			"truncated checksum", "checksum mismatch", "corrupt .wtrc header",
		} {
			if strings.Contains(err.Error(), class) {
				return class
			}
		}
		return "other: " + err.Error()
	}
	open := func(path string, noMmap bool) error {
		trace.SetMmapDisabledForTest(noMmap)
		defer trace.SetMmapDisabledForTest(false)
		m, err := trace.OpenMapped(path)
		if err == nil {
			m.Close()
		}
		return err
	}
	for _, d := range damaged(encodeOne(t)) {
		path := filepath.Join(dir, "x.wtrc")
		if err := os.WriteFile(path, d.data, 0o666); err != nil {
			t.Fatal(err)
		}
		_, parseErr := trace.ParseForTest(d.data)
		mapErr, readErr := open(path, false), open(path, true)
		if parseErr == nil || mapErr == nil || readErr == nil {
			t.Fatalf("%s: parse err %v, mapped err %v, fallback err %v (all must fail)", d.name, parseErr, mapErr, readErr)
		}
		class := classOf(parseErr)
		if strings.HasPrefix(class, "other") || classOf(mapErr) != class || classOf(readErr) != class {
			t.Fatalf("%s: parse %q, mapped %q, fallback %q", d.name, parseErr, mapErr, readErr)
		}
	}
}

// TestMappedMissingFile errors cleanly with and without mmap.
func TestMappedMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.wtrc")
	if _, err := trace.OpenMapped(path); err == nil {
		t.Fatal("missing file must error")
	}
	trace.SetMmapDisabledForTest(true)
	defer trace.SetMmapDisabledForTest(false)
	if _, err := trace.OpenMapped(path); err == nil {
		t.Fatal("missing file must error on the fallback path")
	}
}

// TestMappedEmptyTrace round-trips a zero-access trace (header-only
// file) through the mapped path.
func TestMappedEmptyTrace(t *testing.T) {
	mapped, err := trace.OpenMapped(writeWTRC(t, &trace.LLCTrace{}))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if mapped.NumAccesses() != 0 {
		t.Fatalf("empty trace has %d accesses", mapped.NumAccesses())
	}
	if _, ok := mapped.NewCursor().Next(); ok {
		t.Fatal("empty trace yielded an access")
	}
}

// TestMaterializeMapped re-records a mapped trace with WriteFile and
// requires the copy to be byte-identical to the original file.
func TestMaterializeMapped(t *testing.T) {
	w := workloads.Build(mustSpec(t, "delaunay"), 0.005)
	tr := trace.FilterPrivate(w.Stream(1))
	path := writeWTRC(t, tr)
	mapped, err := trace.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	path2 := filepath.Join(t.TempDir(), "copy.wtrc")
	if err := trace.WriteFile(path2, mapped); err != nil {
		t.Fatal(err)
	}
	orig, err1 := os.ReadFile(path)
	copied, err2 := os.ReadFile(path2)
	if err1 != nil || err2 != nil || !bytes.Equal(orig, copied) {
		t.Fatalf("re-recorded copy differs from the original (errs %v, %v)", err1, err2)
	}
}
