package trace_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"whirlpool/internal/trace"
	"whirlpool/internal/workloads"
)

// benchScale keeps one iteration around 10^5 raw accesses: large enough
// to exercise the encoder, small enough for -benchtime 1x CI smoke.
const benchScale = 0.05

func benchWorkload(b *testing.B) *workloads.Workload {
	b.Helper()
	spec, ok := workloads.ByName("delaunay")
	if !ok {
		b.Fatal("no delaunay spec")
	}
	return workloads.Build(spec, benchScale)
}

// BenchmarkFilterPrivate measures the generate+filter pipeline that the
// harness runs once per app, and reports the columnar trace's resident
// bytes (the number the streaming refactor is meant to shrink).
func BenchmarkFilterPrivate(b *testing.B) {
	w := benchWorkload(b)
	var tr *trace.LLCTrace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr = trace.FilterPrivate(w.Stream(1))
	}
	b.ReportMetric(float64(tr.EncodedBytes()), "trace-bytes")
	b.ReportMetric(float64(tr.EncodedBytes())/float64(tr.NumAccesses()), "bytes/access")
}

// BenchmarkTraceCursorScan measures raw replay speed: one full decode
// pass over a filtered trace, the inner loop of every simulation.
func BenchmarkTraceCursorScan(b *testing.B) {
	w := benchWorkload(b)
	tr := trace.FilterPrivate(w.Stream(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		for cur := tr.NewCursor(); ; {
			if _, ok := cur.Next(); !ok {
				break
			}
			n++
		}
		if n != tr.NumAccesses() {
			b.Fatal("short scan")
		}
	}
}

// BenchmarkTraceCodecEncode measures .wtrc serialization.
func BenchmarkTraceCodecEncode(b *testing.B) {
	w := benchWorkload(b)
	tr := trace.FilterPrivate(w.Stream(1))
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := tr.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "file-bytes")
}

// BenchmarkTraceMmapOpen measures opening a .wtrc file for zero-copy
// reading: header + CRC validation against the mapping, no column
// decode. This is the fixed cost a warm sweep cell pays before its
// first (lazy) replay pass.
func BenchmarkTraceMmapOpen(b *testing.B) {
	w := benchWorkload(b)
	tr := trace.FilterPrivate(w.Stream(1))
	path := filepath.Join(b.TempDir(), "bench.wtrc")
	if err := trace.WriteFile(path, tr); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := trace.OpenMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}

// BenchmarkTraceMmapCursor measures one full lazy-decode replay pass
// straight out of the mapping — the same cursor as TraceCursorScan, over
// page-cache bytes instead of heap columns.
func BenchmarkTraceMmapCursor(b *testing.B) {
	w := benchWorkload(b)
	tr := trace.FilterPrivate(w.Stream(1))
	path := filepath.Join(b.TempDir(), "bench.wtrc")
	if err := trace.WriteFile(path, tr); err != nil {
		b.Fatal(err)
	}
	m, err := trace.OpenMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		for cur := m.NewCursor(); ; {
			if _, ok := cur.Next(); !ok {
				break
			}
			n++
		}
		if n != m.NumAccesses() {
			b.Fatal("short scan")
		}
	}
}
