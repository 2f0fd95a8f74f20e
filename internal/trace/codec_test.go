package trace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"whirlpool/internal/addr"
	"whirlpool/internal/trace"
	"whirlpool/internal/workloads"
)

// roundTrip encodes tr and parses it back, failing the test on error.
// The re-encoded parse must be byte-identical to the first encoding.
func roundTrip(t *testing.T, tr *trace.LLCTrace) *trace.MappedTrace {
	t.Helper()
	var buf bytes.Buffer
	wn, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if wn != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", wn, buf.Len())
	}
	if want := 8 + 72 + tr.EncodedBytes() + 4; buf.Len() != want {
		t.Fatalf("encoding is %d bytes, want header + columns + CRC = %d", buf.Len(), want)
	}
	got, err := trace.ParseForTest(buf.Bytes())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	path := filepath.Join(t.TempDir(), "again.wtrc")
	if err := trace.WriteFile(path, got); err != nil {
		t.Fatalf("WriteFile of the parsed trace: %v", err)
	}
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, buf.Bytes()) {
		t.Fatalf("re-encoding the parsed trace changed its bytes (err %v)", err)
	}
	return got
}

// sameTrace compares two traces access-by-access and stat-by-stat.
func sameTrace(t *testing.T, name string, a, b trace.Reader) {
	t.Helper()
	if a.Stats() != b.Stats() {
		t.Fatalf("%s: stats %+v != %+v", name, a.Stats(), b.Stats())
	}
	if a.NumAccesses() != b.NumAccesses() {
		t.Fatalf("%s: %d accesses != %d", name, a.NumAccesses(), b.NumAccesses())
	}
	ca, cb := a.NewCursor(), b.NewCursor()
	for i := 0; ; i++ {
		x, okx := ca.Next()
		y, oky := cb.Next()
		if okx != oky {
			t.Fatalf("%s: streams end at different lengths near %d", name, i)
		}
		if !okx {
			if ca.Err() != nil || cb.Err() != nil {
				t.Fatalf("%s: cursor errors %v, %v at a clean end", name, ca.Err(), cb.Err())
			}
			return
		}
		if x != y {
			t.Fatalf("%s: access %d: %+v != %+v", name, i, x, y)
		}
	}
}

// TestCodecRoundTripBuiltins encodes and parses every built-in app's
// filtered trace at small scale and requires the parsed stream to be
// identical to the generator's.
func TestCodecRoundTripBuiltins(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite round trip is not short")
	}
	for _, spec := range workloads.Specs() {
		w := workloads.Build(spec, 0.002)
		tr := trace.FilterPrivate(w.Stream(1))
		got := roundTrip(t, tr)
		sameTrace(t, spec.Name, tr, got)
	}
}

func TestCodecRoundTripEmpty(t *testing.T) {
	tr := &trace.LLCTrace{}
	got := roundTrip(t, tr)
	sameTrace(t, "empty", tr, got)
}

// encodeOne builds a small deterministic trace for robustness tests.
func encodeOne(t testing.TB) []byte {
	t.Helper()
	tr := &trace.LLCTrace{}
	for i := 0; i < 1000; i++ {
		tr.Append(trace.LLCAccess{Line: addr.Line(i * 17), Gap: uint32(i % 100), Write: i%3 == 0})
		if i%7 == 0 {
			tr.Append(trace.LLCAccess{Line: addr.Line(i), Writeback: true})
		}
	}
	tr.Instrs = 50000
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCodecTruncated cuts the encoding at every length bucket: each
// prefix must produce an error, never a panic or a silent success.
func TestCodecTruncated(t *testing.T) {
	data := encodeOne(t)
	cuts := []int{0, 1, 3, 4, 7, 8, 20, len(data) / 4, len(data) / 2, len(data) - 5, len(data) - 1}
	for _, cut := range cuts {
		if _, err := trace.ParseForTest(data[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded without error", cut, len(data))
		}
	}
}

// TestCodecCorrupt flips single bytes across the file: every flip must
// surface as a parse error (header sanity or CRC).
func TestCodecCorrupt(t *testing.T) {
	data := encodeOne(t)
	for _, pos := range []int{8, 16, 40, 80, len(data) / 2, len(data) - 2} {
		bad := bytes.Clone(data)
		bad[pos] ^= 0x5a
		if _, err := trace.ParseForTest(bad); err == nil {
			t.Fatalf("corrupt byte at %d decoded without error", pos)
		}
	}
}

func TestCodecBadMagic(t *testing.T) {
	_, err := trace.ParseForTest([]byte("ELF\x7fnot a trace at all, padding padding"))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic error = %v", err)
	}
}

func TestCodecWrongVersion(t *testing.T) {
	data := encodeOne(t)
	bad := bytes.Clone(data)
	bad[4] = 0x63 // version 99
	_, err := trace.ParseForTest(bad)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version error = %v", err)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	w := workloads.Build(mustSpec(t, "delaunay"), 0.01)
	tr := trace.FilterPrivate(w.Stream(1))
	path := filepath.Join(t.TempDir(), "dt.wtrc")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := trace.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	sameTrace(t, "delaunay file", tr, got)
	// No temp droppings left behind by the atomic write.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("cache dir has %d entries, want 1", len(ents))
	}
}

func mustSpec(t *testing.T, name string) workloads.AppSpec {
	t.Helper()
	s, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	return s
}
