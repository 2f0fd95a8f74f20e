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
// In memory a store holds only its index, and the index holds no Go
// pointer per record: a dense table of fixed-size entries (where each
// record's line, key and row lie, its time, and the IDs of its app and
// scheme), an open-addressed key table of entry numbers and key
// fingerprints, and one interned string per distinct app and scheme.
// Keys are compared where they lie, in their lines; a line Put appends
// also copies its key into one dense array of keys. Open validates and
// indexes rows.jsonl by streaming it through a small buffer, and serves
// the row bytes from a read-only shared mapping of the file, so they
// stay in the page cache and become resident only when served. Lines
// appended after Open (by Put, or by other processes and picked up on a
// scan) stay on the heap until Close, also once a later line with the
// same key replaces them, so a handle's heap grows with the bytes it has
// Put or scanned since Open, not only with its distinct records. Where
// mmap is unavailable the whole file is read onto the heap instead,
// with the same results.
//
// Torn writes (a process killed mid-append) surface as unparsable
// JSONL lines; they are skipped and counted, and the next Open heals
// the file tail so later appends stay line-aligned.
package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math"
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

	mu sync.Mutex
	f  *os.File // rows.jsonl, O_APPEND
	// entries are the records in insertion order; a replacement
	// (duplicate key) overwrites its entry in place.
	entries []entry
	// table finds an entry by key: open addressing with linear probing,
	// a power-of-two length, and at most 3/4 of it in use.
	table []slot
	seed  maphash.Seed
	// segs hold the bytes entries point into: the mapping of rows.jsonl
	// a scan from the start made, heap images of lines later scans read,
	// and the arena blocks Put copies its lines into. Nothing writes to
	// bytes a record lies in again — a replacement indexes a new line
	// elsewhere — so rows and lines handed out stay valid after the
	// store lock is released.
	segs [][]byte
	// arena is the unused rest of Put's current block, segs[arenaSeg].
	arena    []byte
	arenaSeg int
	// keys holds the decoded keys of records whose key is not a
	// verbatim span of their line (escaped strings, non-ASCII bytes),
	// and a copy of the key of each line Put appends: those lines lie
	// apart in arena blocks, and a lookup compares a key in this dense
	// array instead.
	keys []byte
	// names are the interned app and scheme strings; entries hold their
	// positions, and nameID maps each back.
	names  []string
	nameID map[string]uint32
	loaded int64 // rows.jsonl bytes consumed into the index
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

// entry is one record of the index. It holds no pointer, so the
// garbage collector never scans the index.
type entry struct {
	off    int64  // where the line starts in segs[seg]
	unix   int64  // Record.Unix
	seg    uint32 // the segment the line lies in
	n      uint32 // the line's length
	row    uint32 // where Record.Row starts in the line
	rowN   uint32 // Row's length; 0 for a record without a row
	key    uint32 // where the key starts: in the line, or in keys if keyN&sideKey
	keyN   uint32 // the key's length, with sideKey set for a key in keys
	app    uint32 // names[app] is Record.App
	scheme uint32 // names[scheme] is Record.Scheme
}

// sideKey marks an entry whose key lies in Store.keys. Lines are shorter
// than maxLine, so no length within one reaches this bit.
const sideKey = 1 << 31

// maxLine bounds the lines the index can point into: longer lines are
// skipped as corrupt.
const maxLine = math.MaxInt32

// slot is one position of the key table.
type slot struct {
	fp  uint32 // the low 32 bits of the key's hash
	ref int32  // 1 + the entry's index; 0 marks a free slot
}

// anyName is the name ID AppendRaw matches every record with.
const anyName = math.MaxUint32

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
	s := &Store{dir: dir, seed: maphash.MakeSeed(), mapRows: mapRows}
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

// size returns the current length of rows.jsonl. Seeking does not move
// where appends or ReadAt go, and unlike Stat it does not allocate.
func (s *Store) size() (int64, error) {
	size, err := s.f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, fmt.Errorf("results: %v", err)
	}
	return size, nil
}

// healTail line-aligns rows.jsonl: if the last append was torn (no
// trailing newline), a plain O_APPEND write would fuse with it and
// corrupt a *good* record, so terminate the partial line now. The
// partial line itself is skipped (and counted) by the scanner.
func (s *Store) healTail() error {
	size, err := s.size()
	if err != nil || size == 0 {
		return err
	}
	buf := make([]byte, 1)
	if _, err := s.f.ReadAt(buf, size-1); err != nil {
		return fmt.Errorf("results: %v", err)
	}
	if buf[0] != '\n' {
		if _, err := s.f.Write([]byte("\n")); err != nil {
			return fmt.Errorf("results: healing torn tail: %v", err)
		}
	}
	return nil
}

// reset empties the index. Segments stay alive for as long as rows
// handed out alias them; mappings stay until Close.
func (s *Store) reset() {
	s.entries, s.table, s.segs, s.arena, s.keys = nil, nil, nil, nil, nil
	s.names, s.nameID = nil, nil
	s.loaded, s.mapped = 0, false
}

// scanChunk is how much of a mapped rows.jsonl scanTail reads at a
// time: it validates the lines in this buffer, never in the mapping, so
// indexing faults none of the mapping's pages in.
const scanChunk = 256 << 10

// scanTail decodes rows.jsonl from s.loaded to EOF, folding new records
// into the index and skipping (but counting) corrupt lines.
func (s *Store) scanTail() error {
	size, err := s.size()
	if err != nil {
		return err
	}
	if size < s.loaded {
		// Shrunk underneath us (someone rewrote rows.jsonl in place):
		// rebuild. Pages of the old mapping may now lie past the end of
		// the file, where a read raises SIGBUS, so the store never serves
		// from it again; it stays mapped until Close for the rows already
		// handed out.
		s.reset()
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
	seg := len(s.segs)
	s.segs = append(s.segs, img)
	indexed := false
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
		if len(s.entries) == 0 {
			// Size the index for the lines this chunk predicts.
			lines := int64(bytes.Count(chunk[:end+1], []byte("\n")))
			lines += lines * (size - from - int64(end) - 1) / int64(end+1)
			s.reserve(int(lines))
		}
		for at := 0; at <= end; {
			i := at + bytes.IndexByte(chunk[at:end+1], '\n')
			line := chunk[at:i]
			off := from + int64(at) - base
			at = i + 1
			if len(line) == 0 {
				continue
			}
			// line holds the bytes that lie at off in img: the chunk
			// is a copy of them for a mapped img, and a slice of img
			// otherwise.
			if s.add(line, seg, off, false) {
				indexed = true
			} else {
				s.corrupt++
			}
		}
		from += int64(end) + 1
		s.loaded = from
	}
	if !indexed {
		// No record lies in img: drop it, and release a mapping rather
		// than map again on the next scan.
		s.segs = s.segs[:seg]
		if buf != nil {
			last := len(s.unmaps) - 1
			_ = s.unmaps[last]()
			s.unmaps, s.mapped = s.unmaps[:last], false
		}
	}
	return err
}

// add indexes one rows.jsonl line, which lies at off in segment seg,
// replacing the record of an equal key (last writer wins). It indexes
// exactly the lines unmarshalLine decodes, as it decodes them; lines in
// the layout Put writes skip the reflection. It reports false for a
// line that holds no record. marshaled says that line is one Put just
// made with json.Marshal and copied into an arena block: json.Marshal
// has already validated and compacted its row, so only its layout is
// read, and its key is copied into s.keys.
func (s *Store) add(line []byte, seg int, off int64, marshaled bool) bool {
	if len(line) >= maxLine {
		return false
	}
	e := entry{off: off, seg: uint32(seg), n: uint32(len(line))}
	var key, app, scheme []byte
	p, ok := putLayout(line)
	if ok && !marshaled {
		ok = validRow(line[p.row : len(line)-1])
	}
	if ok {
		key, app, scheme = line[p.key:p.key+p.keyN], line[p.app:p.app+p.appN], line[p.scheme:p.scheme+p.schemeN]
		e.key, e.keyN = uint32(p.key), uint32(p.keyN)
		if marshaled && s.keysFit(len(key)) {
			e.key, e.keyN = uint32(len(s.keys)), uint32(p.keyN)|sideKey
			s.keys = append(s.keys, key...)
		}
		e.row, e.rowN = uint32(p.row), uint32(len(line)-1-p.row)
		e.unix = p.unix
	} else {
		r, ok := unmarshalLine(line)
		if !ok {
			return false
		}
		// json.RawMessage keeps the value's bytes, so Row is a verbatim
		// span of the line.
		if len(r.Row) > 0 {
			j := rowOffset(line, r.Row)
			if j < 0 {
				return false
			}
			e.row, e.rowN = uint32(j), uint32(len(r.Row))
		}
		if !s.keysFit(len(r.Key)) {
			return false
		}
		e.key, e.keyN = uint32(len(s.keys)), uint32(len(r.Key))|sideKey
		s.keys = append(s.keys, r.Key...)
		key, app, scheme = s.keys[e.key:], []byte(r.App), []byte(r.Scheme)
		e.unix = r.Unix
	}
	e.app, e.scheme = s.intern(app), s.intern(scheme)
	if (len(s.entries)+1)*4 > len(s.table)*3 {
		s.rehash(max(8, 2*len(s.table)))
	}
	fp := uint32(maphash.Bytes(s.seed, key))
	i, found := find(s, key, fp)
	if found {
		s.entries[s.table[i].ref-1] = e
		return true
	}
	s.entries = append(s.entries, e)
	s.table[i] = slot{fp: fp, ref: int32(len(s.entries))}
	return true
}

// keysFit reports whether a key of n bytes can go in s.keys: entries
// address it with 32-bit offsets.
func (s *Store) keysFit(n int) bool {
	return int64(len(s.keys))+int64(n) <= math.MaxUint32
}

// reserve sizes the index for n records.
func (s *Store) reserve(n int) {
	s.entries = slices.Grow(s.entries, n)
	size := 8
	for size*3 < n*4 {
		size *= 2
	}
	if size > len(s.table) {
		s.rehash(size)
	}
}

// rehash moves the key table to n slots (a power of two). Fingerprints
// place the entries, so no key is read.
func (s *Store) rehash(n int) {
	old := s.table
	s.table = make([]slot, n)
	mask := n - 1
	for _, sl := range old {
		if sl.ref == 0 {
			continue
		}
		i := int(sl.fp) & mask
		for s.table[i].ref != 0 {
			i = (i + 1) & mask
		}
		s.table[i] = sl
	}
}

// find returns the key table position of key, whose hash has the low
// bits fp: the slot holding it, or the free slot it would take. A key
// is compared only when its fingerprint matches.
func find[K string | []byte](s *Store, key K, fp uint32) (int, bool) {
	mask := len(s.table) - 1
	for i := int(fp) & mask; ; i = (i + 1) & mask {
		sl := s.table[i]
		if sl.ref == 0 {
			return i, false
		}
		if sl.fp == fp && string(s.keyOf(&s.entries[sl.ref-1])) == string(key) {
			return i, true
		}
	}
}

// fingerprint returns the low 32 bits of key's hash. The seed never
// changes, so a caller can hash before it takes the store lock.
func (s *Store) fingerprint(key string) uint32 {
	return uint32(maphash.String(s.seed, key))
}

// lookup returns the entry of key, whose fingerprint is fp, or nil.
func (s *Store) lookup(key string, fp uint32) *entry {
	table := s.table
	if len(table) == 0 {
		return nil
	}
	mask := uint(len(table) - 1)
	for i := uint(fp) & mask; ; i = (i + 1) & mask {
		sl := table[i]
		if sl.ref == 0 {
			return nil
		}
		if sl.fp == fp {
			if e := &s.entries[sl.ref-1]; string(s.keyOf(e)) == key {
				return e
			}
		}
	}
}

// keyOf returns the bytes of e's key.
func (s *Store) keyOf(e *entry) []byte {
	if e.keyN&sideKey != 0 {
		return s.keys[e.key : e.key+e.keyN&^sideKey]
	}
	start := e.off + int64(e.key)
	return s.segs[e.seg][start : start+int64(e.keyN)]
}

// line returns e's JSON line (no trailing newline), capped so that an
// append to it cannot reach the bytes after it.
func (s *Store) line(e *entry) []byte {
	end := e.off + int64(e.n)
	return s.segs[e.seg][e.off:end:end]
}

// intern returns the ID of name, adding it if it is new.
func (s *Store) intern(name []byte) uint32 {
	if id, ok := s.nameID[string(name)]; ok {
		return id
	}
	if s.nameID == nil {
		s.nameID = make(map[string]uint32)
	}
	id, str := uint32(len(s.names)), string(name)
	s.names = append(s.names, str)
	s.nameID[str] = id
	return id
}

// nameFilter returns the ID a query field matches: anyName for an empty
// field, and false for a name no record has.
func (s *Store) nameFilter(name string) (uint32, bool) {
	if name == "" {
		return anyName, true
	}
	id, ok := s.nameID[name]
	return id, ok
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

// unmarshalLine decodes a line by json.Unmarshal: a line holds a
// record exactly when this decodes it with a non-empty Key.
func unmarshalLine(line []byte) (Record, bool) {
	var r Record
	if json.Unmarshal(line, &r) != nil || r.Key == "" {
		return Record{}, false
	}
	return r, true
}

// putLine locates the fields of a line in Put's layout: where each
// string's bytes start in the line and how many there are, the unix
// time, and where the row starts (it ends before the closing brace).
type putLine struct {
	key, keyN, app, appN, scheme, schemeN, row int
	unix                                       int64
}

// putLayout parses the layout Put writes,
// {"key":"…","app":"…","scheme":"…"[,"unix":<digits>],"row":<value>},
// with no whitespace between tokens, up to the row: it locates the
// fields and where the row lies, and leaves the row's bytes unread. It
// reports false for anything else, and for anything json.Unmarshal
// would decode differently, so callers can fall back; a line is in
// Put's layout when validRow also accepts its row. Its strings are
// plain (see plainString), so their bytes are their values.
func putLayout(line []byte) (p putLine, ok bool) {
	var i int
	if p.key, p.keyN, i = plainField(line, 0, `{"key":`); p.keyN <= 0 {
		return putLine{}, false
	}
	if p.app, p.appN, i = plainField(line, i, `,"app":`); p.appN < 0 {
		return putLine{}, false
	}
	if p.scheme, p.schemeN, i = plainField(line, i, `,"scheme":`); p.schemeN < 0 {
		return putLine{}, false
	}
	q := line[i:]
	if u, ok := bytes.CutPrefix(q, []byte(`,"unix":`)); ok {
		n := 0
		for n < len(u) && '0' <= u[n] && u[n] <= '9' {
			n++
		}
		if n == 0 || n > 1 && u[0] == '0' {
			return putLine{}, false
		}
		unix, err := strconv.ParseInt(string(u[:n]), 10, 64)
		if err != nil {
			return putLine{}, false
		}
		p.unix, q = unix, u[n:]
	}
	if q, ok = bytes.CutPrefix(q, []byte(`,"row":`)); !ok || len(q) < 2 || q[len(q)-1] != '}' {
		return putLine{}, false
	}
	p.row = len(line) - len(q)
	return p, true
}

// validRow reports whether row, the bytes between "row": and the
// closing brace, decode to a RawMessage of exactly those bytes:
// json.Valid allows surrounding whitespace, but json.Unmarshal leaves it
// out of a RawMessage.
func validRow(row []byte) bool {
	return len(bytes.TrimSpace(row)) == len(row) && json.Valid(row)
}

// plainField parses name and then a plain string (see plainString) at
// line[i:]. It returns where the string's bytes start, how many there
// are (-1 when the field is not there), and where the field ends.
func plainField(line []byte, i int, name string) (start, n, end int) {
	if len(line)-i < len(name) || string(line[i:i+len(name)]) != name {
		return 0, -1, 0
	}
	start = i + len(name) + 1
	n = plainString(line[start-1:])
	return start, n, start + n + 1
}

// plainString returns the length of the value of the JSON string at the
// front of p when its bytes are its value: printable ASCII with no
// backslash. Other strings need unescaping or, for invalid UTF-8, the
// replacement json.Unmarshal makes, so they report -1.
func plainString(p []byte) int {
	if len(p) == 0 || p[0] != '"' {
		return -1
	}
	for i := 1; i < len(p); i++ {
		switch c := p[i]; {
		case c == '"':
			return i - 1
		case c < 0x20 || c > 0x7e || c == '\\':
			return -1
		}
	}
	return -1
}

// Get returns the record stored under key. A miss first refreshes from
// disk, so records appended by other processes since Open are served
// without reopening. The record's Row is valid until Close.
//
//whirl:zeroalloc
func (s *Store) Get(key string) (r Record, ok bool) {
	fp := s.fingerprint(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	// A mapped store scans before every lookup: rows.jsonl may have
	// shrunk under the mapping, and the rebuild must come before a key
	// past its end is compared or a row past it handed out.
	scanned := s.mapped
	if scanned {
		_ = s.scanTail()
	}
	e := s.lookup(key, fp)
	if e == nil && !scanned {
		_ = s.scanTail()
		e = s.lookup(key, fp)
	}
	if e == nil {
		s.misses++
		return r, false
	}
	s.hits++
	r.Key, r.App, r.Scheme, r.Unix = key, s.names[e.app], s.names[e.scheme], e.unix
	if e.rowN > 0 {
		end := e.row + e.rowN
		r.Row = s.line(e)[e.row:end:end]
	}
	return r, true
}

// arenaBlock is the size of the heap blocks Put copies its lines into.
const arenaBlock = 64 << 10

// Put appends one record to the store and folds it into memory. The
// append is a single write of one complete line, so concurrent writers
// (goroutines or processes) never interleave bytes. The store then
// serves the record as it reads back from that line, as another handle
// would.
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
	if size, err := s.size(); err == nil && size == s.loaded+int64(len(line)) {
		s.loaded = size
		line = line[:len(line)-1]
		if len(line) > len(s.arena) {
			// Start a new block: the rest of the last one stays unused,
			// so no byte a record lies in ever moves.
			s.arena, s.arenaSeg = make([]byte, max(arenaBlock, len(line))), len(s.segs)
			s.segs = append(s.segs, s.arena)
		}
		off := len(s.segs[s.arenaSeg]) - len(s.arena)
		s.arena = s.arena[copy(s.arena, line):]
		if !s.add(s.segs[s.arenaSeg][off:off+len(line)], s.arenaSeg, int64(off), true) {
			s.corrupt++
		}
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
// call until Close (a concurrent replacement of a key indexes a new
// line rather than mutating the old one).
//
//whirl:zeroalloc
func (s *Store) AppendRaw(q Query, dst [][]byte) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.scanTail()
	app, ok := s.nameFilter(q.App)
	if !ok {
		return dst
	}
	scheme, ok := s.nameFilter(q.Scheme)
	if !ok {
		return dst
	}
	if q.Key != "" {
		if e := s.lookup(q.Key, s.fingerprint(q.Key)); e != nil && matches(e, app, scheme) {
			dst = append(dst, s.line(e))
		}
		return dst
	}
	matched := 0
	for i := range s.entries {
		if e := &s.entries[i]; matches(e, app, scheme) {
			dst = append(dst, s.line(e))
			matched++
			if q.Limit > 0 && matched >= q.Limit {
				break
			}
		}
	}
	return dst
}

// matches reports whether e has the app and scheme IDs a query resolved
// to.
func matches(e *entry, app, scheme uint32) bool {
	return (app == anyName || e.app == app) && (scheme == anyName || e.scheme == scheme)
}

// Len returns the number of distinct keys currently loaded.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Puts: s.puts,
		CorruptRows: s.corrupt, Records: len(s.entries),
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
	s.reset()
	err := s.f.Close()
	for _, unmap := range s.unmaps {
		if uerr := unmap(); err == nil {
			err = uerr
		}
	}
	s.unmaps = nil
	return err
}
