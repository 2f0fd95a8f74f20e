package results

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func rec(key, app, scheme string, v int) Record {
	return Record{
		Key: key, App: app, Scheme: scheme,
		Row: json.RawMessage(fmt.Sprintf(`{"app":%q,"scheme":%q,"mpki":%d}`, app, scheme, v)),
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := rec("k1", "delaunay", "whirlpool", 7)
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k1")
	if !ok || got.App != "delaunay" || string(got.Row) != string(want.Row) {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get of a missing key succeeded")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Records != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReopenLoadsRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := s.Put(rec(fmt.Sprintf("k%03d", i), "app", "s", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("reopened store has %d records, want %d", s2.Len(), n)
	}
	if st := s2.Stats(); st.CorruptRows != 0 {
		t.Fatalf("clean reopen skipped rows: %+v", st)
	}
	for i := 0; i < n; i++ {
		if _, ok := s2.Get(fmt.Sprintf("k%03d", i)); !ok {
			t.Fatalf("record k%03d lost across reopen", i)
		}
	}
}

func TestLastWriterWins(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Put(rec("k", "a", "s", 1))
	s.Put(rec("k", "a", "s", 2))
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (same key)", s.Len())
	}
	got, _ := s.Get("k")
	if string(got.Row) != `{"app":"a","scheme":"s","mpki":2}` {
		t.Fatalf("Get after overwrite = %s", got.Row)
	}
	s.Close()
	s2, _ := Open(dir)
	defer s2.Close()
	if got, _ := s2.Get("k"); string(got.Row) != `{"app":"a","scheme":"s","mpki":2}` {
		t.Fatalf("reopened Get after overwrite = %s", got.Row)
	}
}

// TestConcurrentWriters hammers one handle from many goroutines and a
// second same-directory handle from another process's point of view,
// then verifies every record survived intact.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir) // a second handle, as another process would hold
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s1
			if w%2 == 1 {
				h = s2
			}
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-i%d", w, i)
				if err := h.Put(rec(key, fmt.Sprintf("app%d", w), "scheme", i)); err != nil {
					t.Errorf("Put(%s): %v", key, err)
				}
			}
		}(w)
	}
	wg.Wait()
	s1.Close()
	s2.Close()

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.CorruptRows != 0 {
		t.Fatalf("concurrent appends corrupted %d rows", st.CorruptRows)
	}
	if s.Len() != writers*perWriter {
		t.Fatalf("store has %d records, want %d", s.Len(), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			r, ok := s.Get(fmt.Sprintf("w%d-i%d", w, i))
			if !ok {
				t.Fatalf("record w%d-i%d lost", w, i)
			}
			var row struct {
				MPKI int `json:"mpki"`
			}
			if err := json.Unmarshal(r.Row, &row); err != nil || row.MPKI != i {
				t.Fatalf("record w%d-i%d payload mangled: %s", w, i, r.Row)
			}
		}
	}
}

// TestCrossHandleVisibility: records appended through one handle are
// served by an already-open second handle (Get refreshes on miss).
func TestCrossHandleVisibility(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir)
	defer s1.Close()
	s2, _ := Open(dir)
	defer s2.Close()
	if err := s1.Put(rec("shared", "a", "s", 3)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("shared"); !ok || got.App != "a" {
		t.Fatalf("second handle missed a record the first appended: %+v, %v", got, ok)
	}
}

// TestOldIndexIgnored: an index.json that an older version left beside
// rows.jsonl (valid, stale or garbage) changes nothing. Open serves
// exactly the records and corrupt-line count of rows.jsonl, and the
// old file is never touched.
func TestOldIndexIgnored(t *testing.T) {
	good, _ := json.Marshal(rec("k1", "app", "s", 1))
	rows := string(good) + "\n{torn garbage\n"
	ghost, _ := json.Marshal(rec("ghost", "app", "s", 9))
	for _, old := range []string{
		`{"version":1,"offset":` + fmt.Sprint(len(rows)) + `,"records":[` + string(good) + `,` + string(ghost) + `]}`,
		`{"version":1,"offset":99999,"records":[` + string(ghost) + `]}`,
		`{"version":99,"offset":0}`,
		"{not json",
		"",
	} {
		dir := t.TempDir()
		ix := filepath.Join(dir, "index.json")
		if err := os.WriteFile(filepath.Join(dir, "rows.jsonl"), []byte(rows), 0o666); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ix, []byte(old), 0o666); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("index %q: Open: %v", old, err)
		}
		if _, ok := s.Get("ghost"); ok || s.Len() != 1 {
			t.Errorf("index %q: store holds %d records (ghost served: %v), want only k1", old, s.Len(), ok)
		}
		if st := s.Stats(); st.CorruptRows != 1 {
			t.Errorf("index %q: CorruptRows = %d, want 1", old, st.CorruptRows)
		}
		if err := s.Put(rec("k2", "app", "s", 2)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if data, err := os.ReadFile(ix); err != nil || string(data) != old {
			t.Errorf("index %q: rewritten to %q (%v)", old, data, err)
		}
	}
}

// TestShrinkRescans: when rows.jsonl is rewritten in place as a shorter
// file under an open handle, the handle drops what it indexed and
// rescans before it serves a row. The rows Open mapped span several
// pages, so a row served from the old mapping past the new end of the
// file would raise SIGBUS.
func TestShrinkRescans(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	const n = 100
	for i := range n {
		s.Put(rec(fmt.Sprintf("k%d", i), "app", strings.Repeat("s", 100), i))
	}
	s.Close()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put(rec("heap", "app", "s", n)) // appended after Open: a heap row
	one, _ := json.Marshal(rec("only", "app", "s", 9))
	if err := os.WriteFile(filepath.Join(dir, "rows.jsonl"), append(one, '\n'), 0o666); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k99", "k0", "heap"} {
		if r, ok := s.Get(key); ok {
			t.Fatalf("record %s of the replaced file still served: %s", key, r.Row)
		}
	}
	if r, ok := s.Get("only"); !ok || string(r.Row) != `{"app":"app","scheme":"s","mpki":9}` {
		t.Fatalf("record of the replacement file not served: %+v, %v", r, ok)
	}
	if raws := s.AppendRaw(Query{}, nil); len(raws) != 1 || string(raws[0]) != string(one) {
		t.Fatalf("AppendRaw after the rewrite = %q, want [%s]", raws, one)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d records after the shrink, want 1", s.Len())
	}
}

// retainedLines are rows.jsonl lines in Put's layout and outside it.
var retainedLines = []string{
	`{"key":"k1","app":"a","scheme":"s","unix":1700000000,"row":{"mpki":1}}`,
	`{"key":"k2","app":"a","scheme":"s","row":{"mpki":2}}`,
	`{"key":"k3","app":"a\u00e9","scheme":"s","row":[1, 2]}`,
	`{"app":"a","scheme":"s","row":{"mpki":4},"key":"k4"}`,
	` {"key":"k5","app":"a","scheme":"s","row": "x" } `,
}

// TestOpenRetainsLinesVerbatim: after Open, every retained line is the
// byte-exact line on disk and every Row is what json.Unmarshal yields,
// whichever decoder path the line took.
func TestOpenRetainsLinesVerbatim(t *testing.T) {
	lines := retainedLines
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "rows.jsonl"), []byte(strings.Join(lines, "\n")+"\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.raws) != len(lines) {
		t.Fatalf("loaded %d lines, want %d", len(s.raws), len(lines))
	}
	for i, line := range lines {
		if string(s.raws[i]) != line {
			t.Errorf("raws[%d] = %s, want %s", i, s.raws[i], line)
		}
		var want Record
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatal(err)
		}
		if got := s.recs[i]; !reflect.DeepEqual(got, want) {
			t.Errorf("record %d = %+v, want %+v", i, got, want)
		}
	}
	for i := 0; i < 2; i++ {
		if _, ok := decodePut([]byte(lines[i])); !ok {
			t.Errorf("line %d is in Put's layout but missed the fast path", i)
		}
	}
}

// TestCorruptRowsSkipped: torn/garbage JSONL lines are skipped and
// counted; the records around them still load, and a torn final line
// is healed so the next append stays line-aligned.
func TestCorruptRowsSkipped(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Put(rec("good1", "a", "s", 1))
	s.Close()

	f, err := os.OpenFile(filepath.Join(dir, "rows.jsonl"), os.O_APPEND|os.O_WRONLY, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{torn garbage\n")
	good2, _ := json.Marshal(rec("good2", "a", "s", 2))
	f.Write(append(good2, '\n'))
	f.WriteString(`{"key":"torn-tail","app":"a`) // killed mid-append, no '\n'
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("good1"); !ok {
		t.Fatal("good1 lost to a neighboring corrupt line")
	}
	if _, ok := s2.Get("good2"); !ok {
		t.Fatal("good2 lost to a neighboring corrupt line")
	}
	if st := s2.Stats(); st.CorruptRows < 2 {
		t.Fatalf("corrupt lines not counted: %+v", st)
	}
	// The healed tail must keep post-corruption appends readable.
	if err := s2.Put(rec("good3", "a", "s", 3)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, _ := Open(dir)
	defer s3.Close()
	if _, ok := s3.Get("good3"); !ok {
		t.Fatal("append after healed tail lost")
	}
}

func TestQueryFilters(t *testing.T) {
	s, _ := Open(t.TempDir())
	defer s.Close()
	s.Put(rec("k1", "delaunay", "whirlpool", 1))
	s.Put(rec("k2", "delaunay", "jigsaw", 2))
	s.Put(rec("k3", "mcf", "whirlpool", 3))
	cases := []struct {
		q    Query
		want []string
	}{
		{Query{}, []string{"k1", "k2", "k3"}},
		{Query{App: "delaunay"}, []string{"k1", "k2"}},
		{Query{Scheme: "whirlpool"}, []string{"k1", "k3"}},
		{Query{App: "delaunay", Scheme: "jigsaw"}, []string{"k2"}},
		{Query{Key: "k3"}, []string{"k3"}},
		{Query{App: "nosuch"}, nil},
		{Query{Limit: 2}, []string{"k1", "k2"}},
	}
	for _, c := range cases {
		var keys []string
		for _, raw := range s.AppendRaw(c.q, nil) {
			var r Record
			if err := json.Unmarshal(raw, &r); err != nil {
				t.Fatalf("raw row is not JSON: %v\n%s", err, raw)
			}
			keys = append(keys, r.Key)
		}
		if fmt.Sprint(keys) != fmt.Sprint(c.want) {
			t.Errorf("AppendRaw(%+v) = %v, want %v", c.q, keys, c.want)
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

// TestAppendRawMatchesQuery: every row the raw serving path returns for
// a query is the record Get serves under its key, across the two ways a
// record can enter memory (Put and the JSONL scan).
func TestAppendRawMatchesQuery(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Put(rec("k1", "delaunay", "whirlpool", 1))
	s.Put(rec("k2", "delaunay", "jigsaw", 2))
	s.Put(rec("k3", "mcf", "whirlpool", 3))
	s.Close()

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put(rec("k4", "mcf", "jigsaw", 4)) // post-reopen Put path

	for _, q := range []Query{
		{}, {App: "delaunay"}, {Scheme: "whirlpool"}, {Key: "k3"},
		{Limit: 2}, {App: "nosuch"},
	} {
		for i, raw := range s.AppendRaw(q, nil) {
			var got Record
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatalf("raw row %d is not JSON: %v\n%s", i, err, raw)
			}
			want, ok := s.Get(got.Key)
			if !ok || got.App != want.App || got.Scheme != want.Scheme || string(got.Row) != string(want.Row) {
				t.Fatalf("AppendRaw(%+v) row %d = %+v, Get = %+v", q, i, got, want)
			}
		}
	}
}

// TestAppendRawZeroAllocPerRow: serving a warm query allocates a small
// constant (the file freshness stat), independent of row count — the
// rows themselves are retained bytes, never re-marshaled.
func TestAppendRawZeroAllocPerRow(t *testing.T) {
	s, _ := Open(t.TempDir())
	defer s.Close()
	const rows = 1000
	for i := 0; i < rows; i++ {
		s.Put(rec(fmt.Sprintf("k%04d", i), "delaunay", "whirlpool", i))
	}
	dst := make([][]byte, 0, rows)
	allocs := testing.AllocsPerRun(50, func() {
		dst = s.AppendRaw(Query{}, dst[:0])
		if len(dst) != rows {
			t.Fatalf("got %d rows, want %d", len(dst), rows)
		}
	})
	// The only allocations allowed are per-call constants (os.File.Stat
	// in the freshness check) — anything that scales with rows fails.
	if allocs > 4 {
		t.Fatalf("AppendRaw allocated %.1f times for %d rows; want a small per-call constant", allocs, rows)
	}
}

func BenchmarkAppendRawWarm(b *testing.B) {
	s, _ := Open(b.TempDir())
	defer s.Close()
	for i := 0; i < 1000; i++ {
		s.Put(rec(fmt.Sprintf("k%04d", i), "delaunay", "whirlpool", i))
	}
	dst := make([][]byte, 0, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.AppendRaw(Query{}, dst[:0])
	}
}

// FuzzDecodeLine checks decodeLine against its definition: a line is a
// record exactly when json.Unmarshal decodes it with a non-empty Key,
// and then decodes to the same Record, byte for byte on Row.
func FuzzDecodeLine(f *testing.F) {
	put := func(r Record) string { b, _ := json.Marshal(r); return string(b) }
	canon := put(rec("k1", "delaunay", "whirlpool", 7))
	withUnix := put(Record{Key: "k2", App: "mcf", Scheme: "jigsaw", Unix: 1700000000, Row: json.RawMessage(`{"mpki":1.5e-3,"error":""}`)})
	for _, s := range []string{
		canon, withUnix,
		canon[:len(canon)/2], canon[:len(canon)-1], withUnix[:strings.Index(withUnix, `"row":`)+6],
		put(Record{Key: `k"q\`, App: "<a&b>", Scheme: "naïve", Row: json.RawMessage(`"é\n"`)}),
		"{\"key\":\"k\xff\",\"app\":\"a\",\"scheme\":\"s\",\"row\":1}",
		"{\"key\":\"k\",\"app\":\"a\x01\",\"scheme\":\"s\",\"row\":1}",
		"{\"key\":\"k\",\"app\":\"a\",\"scheme\":\"s\x7f\",\"row\":\"\xfe\"}",
		`{"key":"k","app":"a","scheme":"s","unix":-5,"row":1}`,
		`{"key":"k","app":"a","scheme":"s","unix":99999999999999999999,"row":1}`,
		`{"key":"k","app":"a","scheme":"s","unix":1e3,"row":1}`,
		`{"key":"k","app":"a","scheme":"s","unix":01,"row":1}`,
		`{"key":"k","app":"a","scheme":"s","unix":0,"row":null}`,
		`{"key":"k","app":"a","scheme":"s","row":1,"extra":2}`,
		`{"key":"k","app":"a","scheme":"s","row":1,"key":""}`,
		`{"key":"k","key":"j","app":"a","scheme":"s","row":1}`,
		`{"KEY":"k","app":"a","scheme":"s","row":1}`,
		`{"key":"k","App":"a","scheme":"s","row":[1,{"a":[]}]}`,
		`{"key":"","app":"a","scheme":"s","row":1}`,
		`{"key":"k","app":"a","scheme":"s","row":{}`,
		` {"key":"k","app":"a","scheme":"s","row":1}`,
		`{"key":"k","app":"a","scheme":"s","row": 1}`,
		`{"key":"k","app":"a","scheme":"s","row":1 }`,
		"{\"key\":\"k\",\"app\":\"a\",\"scheme\":\"s\",\"row\":1}\r",
		`{ "key" : "k" , "app" : "a" , "scheme" : "s" , "row" : true }`,
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := decodeLine(line)
		var want Record
		wantOK := json.Unmarshal(line, &want) == nil && want.Key != ""
		if ok != wantOK {
			t.Fatalf("decodeLine(%q) ok = %v, json.Unmarshal says %v", line, ok, wantOK)
		}
		if ok && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeLine(%q) = %+v, json.Unmarshal gives %+v", line, got, want)
		}
	})
}

// FuzzOpen holds the mapped store to the heap fallback: for any
// rows.jsonl, and again after it is rewritten in place as a shorter
// file, a store serving rows from a mapping and one reading the file
// onto the heap agree on Len, CorruptRows and every row they serve.
func FuzzOpen(f *testing.F) {
	verbatim := strings.Join(retainedLines, "\n") + "\n"
	f.Add([]byte(verbatim), []byte(nil))
	f.Add([]byte(verbatim+`{"key":"torn","app":"a`), []byte(nil))
	f.Add([]byte(verbatim+"{torn garbage\n"+verbatim), []byte(retainedLines[1]+"\n"+`{"key":"k6`))
	f.Add([]byte(strings.Repeat(retainedLines[0]+"\n", 200)), []byte(retainedLines[2]+"\n"))
	f.Add([]byte(""), []byte(nil))
	f.Fuzz(func(t *testing.T, data, rewrite []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "rows.jsonl")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		mapped, err := open(dir, true)
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		heap, err := open(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		defer heap.Close()
		sameStores(t, mapped, heap)
		if int64(len(rewrite)) >= mapped.loaded {
			return // only a shrink tells the stores the file was rewritten
		}
		if err := os.WriteFile(path, rewrite, 0o666); err != nil {
			t.Fatal(err)
		}
		sameStores(t, mapped, heap)
	})
}

// sameStores fails t unless a and b serve the same records and rows.
func sameStores(t *testing.T, a, b *Store) {
	t.Helper()
	rawA, rawB := a.AppendRaw(Query{}, nil), b.AppendRaw(Query{}, nil)
	if !reflect.DeepEqual(rawA, rawB) {
		t.Fatalf("AppendRaw: mapped %q, heap %q", rawA, rawB)
	}
	for _, raw := range rawA {
		var r Record
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("raw row is not JSON: %v\n%s", err, raw)
		}
		ra, _ := a.Get(r.Key)
		rb, _ := b.Get(r.Key)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("Get(%q): mapped %+v, heap %+v", r.Key, ra, rb)
		}
	}
	if a.Len() != b.Len() || a.Stats().CorruptRows != b.Stats().CorruptRows {
		t.Fatalf("mapped holds %d records (%d corrupt), heap %d (%d corrupt)",
			a.Len(), a.Stats().CorruptRows, b.Len(), b.Stats().CorruptRows)
	}
}

// TestOpenLineLongerThanScanBuffer: a line longer than the buffer Open
// validates through is indexed whole, as are the lines around it.
func TestOpenLineLongerThanScanBuffer(t *testing.T) {
	dir := t.TempDir()
	long := rec("long", "a", "s", 1)
	long.Row = json.RawMessage(`"` + strings.Repeat("x", 3*scanChunk) + `"`)
	var data []byte
	for _, r := range []Record{rec("k1", "a", "s", 1), long, rec("k2", "a", "s", 2)} {
		line, _ := json.Marshal(r)
		data = append(append(data, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "rows.jsonl"), data, 0o666); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, ok := s.Get("long"); !ok || string(got.Row) != string(long.Row) {
		t.Fatalf("the long row was not served whole (found %v, %d bytes)", ok, len(got.Row))
	}
	if s.Len() != 3 || s.Stats().CorruptRows != 0 {
		t.Fatalf("store holds %d records (%d corrupt), want 3", s.Len(), s.Stats().CorruptRows)
	}
}

// TestHeapIndependentOfRowSize: an open store keeps its index on the
// heap, not its rows. Two stores of the same records, one with rows
// eight times the size of the other's, retain the same live heap.
func TestHeapIndependentOfRowSize(t *testing.T) {
	const n = 2000
	retained := func(rowBytes int) int64 {
		dir := t.TempDir()
		var data []byte
		for i := range n {
			r := storeRecord(i)
			r.Row = json.RawMessage(`{"pad":"` + strings.Repeat("x", rowBytes) + `"}`)
			line, _ := json.Marshal(r)
			data = append(append(data, line...), '\n')
		}
		if err := os.WriteFile(filepath.Join(dir, "rows.jsonl"), data, 0o666); err != nil {
			t.Fatal(err)
		}
		data = nil
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC() // and what sync.Pools held through the first
		runtime.ReadMemStats(&before)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if !s.mapped {
			t.Skip("rows.jsonl cannot be mapped here: the store reads it onto the heap")
		}
		if s.Len() != n {
			t.Fatalf("store holds %d records, want %d", s.Len(), n)
		}
		s.Close()
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	small, large := retained(1<<10), retained(8<<10)
	t.Logf("retained heap: %d B with 1 KB rows, %d B with 8 KB rows", small, large)
	if d := large - small; d < -small/10 || d > small/10 {
		t.Fatalf("stores of 1 KB rows retain %d heap bytes, of 8 KB rows %d: want within 10%%", small, large)
	}
}

// storeRecord is the i-th record of a store shaped like the benchmark's
// filled stores: a 64-hex-digit cell key and an experiments.SweepRow.
func storeRecord(i int) Record {
	key := fmt.Sprintf("%032x%032x", uint64(i)*0x9e3779b97f4a7c15, i)
	app := fmt.Sprintf("fill-%05d", i/6)
	scheme := [...]string{"snuca-lru", "snuca-drrip", "idealspd", "awasthi", "jigsaw", "whirlpool"}[i%6]
	x := float64(i+1) * 1.0000001
	row := fmt.Sprintf(`{"app":%q,"scheme":%q,"cycles":%d,"instrs":%d,"ipc":%v,"apki":%v,"mpki":%v,`+
		`"llc_accesses":%d,"hits":%d,"misses":%d,"bypasses":0,"energy_pj":%v,"network_energy_pj":%v,`+
		`"bank_energy_pj":%v,"memory_energy_pj":%v,"wall_ms":%v,"key":%q}`,
		app, scheme, 9876543*i, 5432109*i, 0.55*x, 31.7*x, 7.3*x, 123456*i, 98765*i, 24691*i,
		2.345e9*x, 3.21e8*x, 4.56e8*x, 1.234e9*x, 12.3456*x, key)
	return Record{Key: key, App: app, Scheme: scheme, Row: json.RawMessage(row)}
}

// BenchmarkOpen opens a 20 000-record store, the size the benchmark's
// sweep-cold and serve workloads keep.
func BenchmarkOpen(b *testing.B) {
	const n = 20000
	dir := b.TempDir()
	var buf []byte
	for i := range n {
		line, _ := json.Marshal(storeRecord(i))
		buf = append(append(buf, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "rows.jsonl"), buf, 0o666); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for b.Loop() {
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != n {
			b.Fatalf("opened %d records, want %d", s.Len(), n)
		}
		s.Close()
	}
}

func BenchmarkGet(b *testing.B) {
	const n = 1000
	s, _ := Open(b.TempDir())
	defer s.Close()
	keys := make([]string, n)
	for i := range n {
		r := storeRecord(i)
		keys[i] = r.Key
		s.Put(r)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, ok := s.Get(keys[i%n]); !ok {
			b.Fatal("miss")
		}
		i++
	}
}

func BenchmarkPut(b *testing.B) {
	s, _ := Open(b.TempDir())
	defer s.Close()
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = storeRecord(i)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if err := s.Put(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
