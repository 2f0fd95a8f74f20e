// Package results is the persistent half of the experiment pipeline: a
// content-addressed, append-only store of finished sweep rows. Every
// input to a sweep cell is hashable (the workload spec JSON, the scheme
// id, scale, seed, reconfig period, chip topology, format version — see
// internal/experiments.CellKey), so a cell's result can be memoized
// under that digest and served forever after without re-simulation, by
// any process sharing the store directory.
//
// On disk a store is one file, rows.jsonl, under its directory: one
// JSON record per line, append-only. Writers append whole lines with
// O_APPEND, so concurrent processes interleave records, never bytes.
// An index.json left beside it by older versions is ignored.
//
// In memory a store holds only its index: each record's key, app and
// scheme, and where its line and row lie. Open validates and indexes
// rows.jsonl by streaming it through a small buffer, and serves the row
// bytes from a read-only shared mapping of the file, so they stay in
// the page cache and become resident only when served. Lines appended
// after Open (by Put, or by other processes and picked up on a scan)
// stay on the heap. Where mmap is unavailable the whole file is read
// onto the heap instead, with the same results.
//
// Torn writes (a process killed mid-append) surface as unparsable
// JSONL lines; they are skipped and counted, and the next Open heals
// the file tail so later appends stay line-aligned.
package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"

	"whirlpool/internal/mmap"
)

// Record is one stored result row.
type Record struct {
	// Key is the content-address of the cell that produced the row
	// (experiments.CellKey): two records with equal keys describe the
	// same simulation and carry equal rows.
	Key string `json:"key"`
	// App and Scheme duplicate the row's identity columns so queries
	// can filter without decoding Row.
	App    string `json:"app"`
	Scheme string `json:"scheme"`
	// Unix is the append time in seconds (informational only; it is not
	// part of the identity and never affects serving).
	Unix int64 `json:"unix,omitempty"`
	// Row is the full metric row as produced by the sweep engine
	// (experiments.SweepRow JSON: MPKI, cycles, NoC/energy breakdowns).
	// A Row returned by the store may alias the store's read-only
	// mapping of rows.jsonl or its retained JSONL bytes, which AppendRaw
	// serves to other callers: it must not be modified, and it is valid
	// until the store is closed.
	Row json.RawMessage `json:"row"`
}

// Query filters Records; zero fields match everything.
type Query struct {
	App    string
	Scheme string
	Key    string
	// Limit caps the result count; 0 means unlimited.
	Limit int
}

// Stats are the store's observability counters. ServeHits/Misses prove
// memoization the same way harness CacheStats prove trace caching: a
// sweep resubmitted against a warm store shows Misses == 0.
type Stats struct {
	// Hits counts Get calls that found a record (rows served without
	// simulation when the caller is the sweep engine).
	Hits int64
	// Misses counts Get calls that found nothing (each one corresponds
	// to a freshly computed row on the sweep path).
	Misses int64
	// Puts counts records appended by this handle.
	Puts int64
	// CorruptRows counts unparsable JSONL lines skipped while loading
	// (torn writes from killed processes; the data before and after
	// them is unaffected).
	CorruptRows int64
	// Records is the number of distinct keys currently loaded.
	Records int
}

// Store is an open result store. It is safe for concurrent use by
// multiple goroutines, and the directory is safe to share between
// concurrent processes: appends are atomic whole lines, and readers
// pick up other writers' records on open and whenever Get misses or
// AppendRaw serves.
type Store struct {
	dir string

	mu    sync.Mutex
	f     *os.File // rows.jsonl, O_APPEND
	byKey map[string]int
	recs  []Record // insertion order; byKey points into it
	// raws[i] is recs[i]'s JSON line (no trailing newline), in the
	// mapping of rows.jsonl or on the heap, so the serving path can
	// stream rows without re-marshaling or allocating per row. Each
	// slice is immutable once stored — a replacement (duplicate key)
	// swaps in a fresh slice rather than mutating the old one — so
	// AppendRaw results stay valid after the store lock is released.
	raws   [][]byte
	loaded int64 // rows.jsonl bytes consumed into recs
	// mapRows is false only for stores that must read rows.jsonl onto
	// the heap (the fallback's tests).
	mapRows bool
	// mapped is set while records alias a mapping of rows.jsonl.
	mapped bool
	// unmaps release every mapping this store made: the one Open made
	// and one per rebuild after rows.jsonl shrank. Rows handed out may
	// alias any of them, so only Close releases them.
	unmaps []func() error
	closed bool

	hits, misses, puts, corrupt int64
}

func (s *Store) rowsPath() string { return filepath.Join(s.dir, "rows.jsonl") }

// Open opens (creating if needed) the store rooted at dir and indexes
// every record in rows.jsonl.
func Open(dir string) (*Store, error) { return open(dir, true) }

// open is Open; mapRows false reads rows.jsonl onto the heap as if mmap
// were unavailable.
func open(dir string, mapRows bool) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("results: store directory must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("results: %v", err)
	}
	s := &Store{dir: dir, byKey: make(map[string]int), mapRows: mapRows}
	f, err := os.OpenFile(s.rowsPath(), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("results: %v", err)
	}
	s.f = f
	if err := s.healTail(); err != nil {
		f.Close()
		return nil, err
	}
	if err := s.scanTail(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// healTail line-aligns rows.jsonl: if the last append was torn (no
// trailing newline), a plain O_APPEND write would fuse with it and
// corrupt a *good* record, so terminate the partial line now. The
// partial line itself is skipped (and counted) by the scanner.
func (s *Store) healTail() error {
	st, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("results: %v", err)
	}
	if st.Size() == 0 {
		return nil
	}
	buf := make([]byte, 1)
	if _, err := s.f.ReadAt(buf, st.Size()-1); err != nil {
		return fmt.Errorf("results: %v", err)
	}
	if buf[0] != '\n' {
		if _, err := s.f.Write([]byte("\n")); err != nil {
			return fmt.Errorf("results: healing torn tail: %v", err)
		}
	}
	return nil
}

// insert adds or replaces (last writer wins) one record in memory.
// raw is the record's JSON line without the trailing newline.
func (s *Store) insert(r Record, raw []byte) {
	if i, ok := s.byKey[r.Key]; ok {
		s.recs[i] = r
		s.raws[i] = raw
		return
	}
	s.byKey[r.Key] = len(s.recs)
	s.recs = append(s.recs, r)
	s.raws = append(s.raws, raw)
}

// scanChunk is how much of a mapped rows.jsonl scanTail reads at a
// time: it validates the lines in this buffer, never in the mapping, so
// indexing faults none of the mapping's pages in.
const scanChunk = 256 << 10

// scanTail decodes rows.jsonl from s.loaded to EOF, folding new records
// into the index and skipping (but counting) corrupt lines.
func (s *Store) scanTail() error {
	st, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("results: %v", err)
	}
	size := st.Size()
	if size < s.loaded {
		// Shrunk underneath us (someone rewrote rows.jsonl in place):
		// rebuild. Pages of the old mapping may now lie past the end of
		// the file, where a read raises SIGBUS, so the store never serves
		// from it again; it stays mapped until Close for the rows already
		// handed out.
		s.byKey = make(map[string]int)
		s.recs = nil
		s.raws = nil
		s.loaded = 0
		s.mapped = false
	}
	if size == s.loaded {
		return nil
	}
	// img holds the bytes of rows.jsonl from base on that records keep.
	// A scan from the start maps the file and reads it through a small
	// buffer; a later scan (lines other processes appended) and a
	// platform without mmap read the bytes onto the heap and validate
	// them there.
	base := s.loaded
	var img, buf []byte
	if base == 0 && s.mapRows {
		if data, unmap, err := mmap.Map(s.f, size); err == nil {
			s.unmaps = append(s.unmaps, unmap)
			s.mapped = true
			img, buf = data, make([]byte, min(size, scanChunk))
		}
	}
	if img == nil {
		img = make([]byte, size-base)
	}
	for from := base; from < size; {
		chunk := buf
		if chunk == nil {
			chunk = img[from-base:]
		}
		chunk = chunk[:min(int64(len(chunk)), size-from)]
		m, rerr := s.f.ReadAt(chunk, from)
		if rerr != nil && rerr != io.EOF {
			err = fmt.Errorf("results: scanning %s: %v", s.rowsPath(), rerr)
			break
		}
		chunk = chunk[:m]
		// Consume only complete lines: a trailing fragment without '\n'
		// (another process mid-append) is left for the next scan to
		// reread once it is whole.
		end := bytes.LastIndexByte(chunk, '\n')
		if end < 0 {
			if buf == nil || m < len(buf) {
				break
			}
			buf = make([]byte, 2*len(buf)) // a line longer than the buffer
			continue
		}
		if len(s.recs) == 0 {
			// Size the index for the lines this chunk predicts.
			lines := int64(bytes.Count(chunk[:end+1], []byte("\n")))
			lines += lines * (size - from - int64(end) - 1) / int64(end+1)
			s.byKey = make(map[string]int, lines)
			s.recs = slices.Grow(s.recs, int(lines))
			s.raws = slices.Grow(s.raws, int(lines))
		}
		for at := 0; at <= end; {
			i := at + bytes.IndexByte(chunk[at:end+1], '\n')
			line := chunk[at:i]
			// raw is the line where it stays: in the mapping, or in img
			// on the heap. Nothing writes to either again, so retained
			// lines are immutable.
			off := from + int64(at) - base
			raw := img[off : off+int64(len(line)) : off+int64(len(line))]
			at = i + 1
			if len(line) == 0 {
				continue
			}
			r, ok := decodeLine(line)
			if !ok {
				s.corrupt++
				continue
			}
			if len(r.Row) > 0 {
				if j := rowOffset(line, r.Row); j >= 0 {
					r.Row = raw[j : j+len(r.Row) : j+len(r.Row)]
				}
			}
			s.insert(r, raw)
		}
		from += int64(end) + 1
		s.loaded = from
	}
	if s.mapped && s.loaded == 0 {
		// Nothing aliases a mapping that indexed no line: release it
		// rather than map again on the next scan.
		last := len(s.unmaps) - 1
		_ = s.unmaps[last]()
		s.unmaps, s.mapped = s.unmaps[:last], false
	}
	return err
}

// rowOffset is where row's bytes start in line. A decoded Row is always
// a verbatim span of its line (json.RawMessage keeps the value's bytes),
// in Put's layout the one just before the closing brace.
func rowOffset(line, row []byte) int {
	if i := len(line) - 1 - len(row); i >= 0 && bytes.Equal(line[i:i+len(row)], row) {
		return i
	}
	return bytes.Index(line, row)
}

// decodeLine decodes one rows.jsonl line. It accepts exactly the lines
// json.Unmarshal decodes into a Record with a non-empty Key, with the
// same result; lines in the layout Put writes skip the reflection.
func decodeLine(line []byte) (Record, bool) {
	if r, ok := decodePut(line); ok {
		return r, true
	}
	var r Record
	if json.Unmarshal(line, &r) != nil || r.Key == "" {
		return Record{}, false
	}
	return r, true
}

// decodePut parses the layout Put writes,
// {"key":"…","app":"…","scheme":"…"[,"unix":<digits>],"row":<value>},
// with no whitespace between tokens. It reports false for anything
// else, and for anything json.Unmarshal would decode differently, so
// decodeLine can fall back. Row aliases line.
func decodePut(line []byte) (r Record, ok bool) {
	p, ok := bytes.CutPrefix(line, []byte(`{"key":`))
	if ok {
		r.Key, p, ok = plainString(p)
	}
	if ok {
		p, ok = bytes.CutPrefix(p, []byte(`,"app":`))
	}
	if ok {
		r.App, p, ok = plainString(p)
	}
	if ok {
		p, ok = bytes.CutPrefix(p, []byte(`,"scheme":`))
	}
	if ok {
		r.Scheme, p, ok = plainString(p)
	}
	if !ok || r.Key == "" {
		return Record{}, false
	}
	if q, ok := bytes.CutPrefix(p, []byte(`,"unix":`)); ok {
		n := 0
		for n < len(q) && '0' <= q[n] && q[n] <= '9' {
			n++
		}
		if n == 0 || n > 1 && q[0] == '0' {
			return Record{}, false
		}
		unix, err := strconv.ParseInt(string(q[:n]), 10, 64)
		if err != nil {
			return Record{}, false
		}
		r.Unix, p = unix, q[n:]
	}
	if p, ok = bytes.CutPrefix(p, []byte(`,"row":`)); !ok || len(p) < 2 || p[len(p)-1] != '}' {
		return Record{}, false
	}
	// json.Valid allows surrounding whitespace, but json.Unmarshal
	// leaves it out of a RawMessage.
	row := p[: len(p)-1 : len(p)-1]
	if len(bytes.TrimSpace(row)) != len(row) || !json.Valid(row) {
		return Record{}, false
	}
	r.Row = row
	return r, true
}

// plainString decodes the JSON string at the front of p when its bytes
// are its value: printable ASCII with no backslash. Other strings need
// unescaping or, for invalid UTF-8, the replacement json.Unmarshal
// makes, so they report false.
func plainString(p []byte) (string, []byte, bool) {
	if len(p) == 0 || p[0] != '"' {
		return "", p, false
	}
	for i := 1; i < len(p); i++ {
		switch c := p[i]; {
		case c == '"':
			return string(p[1:i]), p[i+1:], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", p, false
		}
	}
	return "", p, false
}

// Get returns the record stored under key. A miss first refreshes from
// disk, so records appended by other processes since Open are served
// without reopening. The record's Row is valid until Close.
func (s *Store) Get(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byKey[key]
	if !ok || s.mapped {
		// On a mapped store a hit scans too: rows.jsonl may have shrunk
		// under the mapping, and the rebuild must come before a row past
		// its end is handed out.
		_ = s.scanTail()
		i, ok = s.byKey[key]
	}
	if !ok {
		s.misses++
		return Record{}, false
	}
	s.hits++
	return s.recs[i], true
}

// Put appends one record to the store and folds it into memory. The
// append is a single write of one complete line, so concurrent writers
// (goroutines or processes) never interleave bytes.
func (s *Store) Put(r Record) error {
	if r.Key == "" {
		return fmt.Errorf("results: record needs a key")
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("results: %v", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("results: store is closed")
	}
	if _, err := s.f.Write(line); err != nil {
		return fmt.Errorf("results: %v", err)
	}
	// Our own append extends rows.jsonl past s.loaded; account for it
	// directly only when no other writer slipped in between (the common
	// case); otherwise the next scanTail picks both up.
	if st, err := s.f.Stat(); err == nil && st.Size() == s.loaded+int64(len(line)) {
		s.loaded = st.Size()
		s.insert(r, line[:len(line)-1])
	} else {
		_ = s.scanTail()
	}
	s.puts++
	return nil
}

// AppendRaw appends the marshaled JSON lines of the records matching q
// to dst (in insertion order) and returns the extended slice. This is
// the zero-allocation serving path: each element is the record's
// retained JSONL bytes — no per-row marshaling, no copies — so a warm
// query allocates nothing beyond dst growth when its capacity is
// exceeded. The returned slices are immutable and may alias the
// store's read-only mapping of rows.jsonl; they remain valid after the
// call until Close (a concurrent replacement of a key installs a fresh
// slice rather than mutating the old one).
//
//whirl:zeroalloc
func (s *Store) AppendRaw(q Query, dst [][]byte) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.scanTail()
	matched := 0
	for i := range s.recs {
		r := &s.recs[i]
		if q.App != "" && r.App != q.App {
			continue
		}
		if q.Scheme != "" && r.Scheme != q.Scheme {
			continue
		}
		if q.Key != "" && r.Key != q.Key {
			continue
		}
		dst = append(dst, s.raws[i])
		matched++
		if q.Limit > 0 && matched >= q.Limit {
			break
		}
	}
	return dst
}

// Len returns the number of distinct keys currently loaded.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Puts: s.puts,
		CorruptRows: s.corrupt, Records: len(s.recs),
	}
}

// Close releases the store's file handle and its mappings of
// rows.jsonl, so Rows and AppendRaw slices it handed out must no longer
// be read; a closed store serves nothing. The directory remains valid
// for other handles and future Opens.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.byKey, s.recs, s.raws, s.mapped = nil, nil, nil, false
	err := s.f.Close()
	for _, unmap := range s.unmaps {
		if uerr := unmap(); err == nil {
			err = uerr
		}
	}
	s.unmaps = nil
	return err
}
