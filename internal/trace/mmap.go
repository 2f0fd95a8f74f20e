// Memory-mapped .wtrc reading: MappedTrace serves a trace straight out
// of the page cache. The file is validated once at open (magic, version,
// header plausibility, column completeness, CRC), but the columns are
// never copied or pre-walked — cursors decode varints lazily out of the
// mapping, so opening a warm trace costs one checksum pass instead of a
// full decode, and N concurrent cursors share one resident copy.
//
// When mmap is unavailable (non-unix builds, empty files, filesystems
// that refuse to map) OpenMapped falls back to reading the file through
// ordinary io: same type, same semantics, heap-resident bytes.
package trace

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
)

// ErrClosed is reported (by Cursor.Err, or wrapped by WriteFile) when a
// MappedTrace is used after Close released its mapping.
var ErrClosed = errors.New("trace: mapped trace is closed")

// errMmapUnavailable signals mapFile cannot serve this request; the
// caller falls back to plain reads.
var errMmapUnavailable = errors.New("trace: mmap unavailable")

// mmapDisabled force-disables mmap (tests exercise the fallback path).
var mmapDisabled atomic.Bool

// readFileBytes returns path's full contents, preferring a read-only
// mapping (unmap non-nil) and falling back to a plain read (unmap nil).
func readFileBytes(path string) (data []byte, unmap func() error, err error) {
	if !mmapDisabled.Load() {
		if data, unmap, err := mapFile(path); err == nil {
			return data, unmap, nil
		}
	}
	data, err = os.ReadFile(path)
	return data, nil, err
}

// MappedTrace is a .wtrc file served zero-copy: the header and CRC are
// validated at open, and cursors decode the columns lazily straight out
// of the mapping (or its heap-read fallback). It implements TraceReader
// with the same columns and cursor as an *LLCTrace — the harness's trace
// cache and "trace"-sourced spec apps both open traces this way.
//
// Close releases the mapping; cursors created before or after Close
// observe it and fail cleanly via Cursor.Err (they never touch unmapped
// memory after the closed flag is set). Close must not be called while a
// cursor is mid-Next on another goroutine.
type MappedTrace struct {
	columns // a view into the mapping: never handed out
	unmap   func() error
	mapped  bool
	closed  atomic.Bool
}

// OpenMapped opens a .wtrc file for zero-copy reading; it is the only
// way to read one. The whole file is validated up front (header
// plausibility and CRC — one sequential pass, no decoding, no column
// copies); corrupt or truncated files error here. When the file cannot
// be mmapped the bytes are read into memory instead and served
// identically.
func OpenMapped(path string) (*MappedTrace, error) {
	data, unmap, err := readFileBytes(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	c, err := parseWTRC(data)
	if err != nil {
		if unmap != nil {
			_ = unmap()
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &MappedTrace{columns: c, unmap: unmap, mapped: unmap != nil}, nil
}

// Close releases the mapping (a no-op on the heap fallback beyond
// flagging the trace closed). Idempotent. Cursors used after Close
// return no accesses and report ErrClosed via Err.
func (m *MappedTrace) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	if m.unmap != nil {
		return m.unmap()
	}
	return nil
}

// Mapped reports whether the trace is backed by a real memory mapping
// (false on the io fallback path).
func (m *MappedTrace) Mapped() bool { return m.mapped }

// NewCursor implements Reader. Cursors are independent: any number may
// iterate one mapping concurrently (they only read).
func (m *MappedTrace) NewCursor() Cursor { return &cursor{c: &m.columns, closed: &m.closed} }
