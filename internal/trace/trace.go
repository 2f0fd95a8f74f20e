// Package trace defines memory-access streams and the private-cache filter
// that turns a raw program access stream into the LLC-level trace the NUCA
// schemes are evaluated on.
//
// Filtering through the (identical across schemes) private L1/L2 levels
// once and replaying the resulting LLC trace against each scheme is what
// makes sweeping 31 apps × 6 schemes tractable; see docs/design.md.
//
// The LLC trace itself is a columnar, delta-encoded stream (LLCTrace)
// replayed through cursors (Reader/Cursor), not a materialized slice of
// structs: traces dominate the simulator's resident memory, and the
// columnar form both shrinks them severalfold and is byte-for-byte the
// payload of the on-disk .wtrc format (docs/trace-format.md), so a
// mapped file replays through the same cursor as a fresh trace.
package trace

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"whirlpool/internal/addr"
	"whirlpool/internal/cache"
)

// Access is one memory reference in program order.
type Access struct {
	Line  addr.Line
	Write bool
	// Gap is the number of instructions executed since the previous
	// access (pacing for APKI accounting).
	Gap uint32
}

// Stream produces a finite sequence of accesses.
type Stream interface {
	// Next returns the next access; ok=false signals end of stream.
	Next() (Access, bool)
}

// SliceStream replays a recorded slice of accesses.
type SliceStream struct {
	Accs []Access
	pos  int
}

// Next implements Stream.
func (s *SliceStream) Next() (Access, bool) {
	if s.pos >= len(s.Accs) {
		return Access{}, false
	}
	a := s.Accs[s.pos]
	s.pos++
	return a, true
}

// LLCAccess is one access arriving at the shared LLC.
type LLCAccess struct {
	Line addr.Line
	// Gap is the number of instructions since the previous *demand*
	// LLC access from this core.
	Gap uint32
	// Writeback marks an L2 dirty eviction: it consumes LLC bandwidth and
	// energy but does not stall the core.
	Writeback bool
	// Write marks a demand store.
	Write bool
}

// Private cache configuration (Table 3).
const (
	L1Bytes    = 32 * addr.KB
	L1Ways     = 8
	L2Bytes    = 128 * addr.KB
	L2Ways     = 8
	L1Latency  = 4
	L2Latency  = 6
	L2HitStall = 6 // cycles a demand L2 hit adds to the core
)

// Summary holds the private-level statistics of a filtered trace: they
// are identical across LLC schemes, so the simulator folds them into
// every scheme's result instead of re-simulating the private levels.
type Summary struct {
	// Instrs is the total instructions the raw stream represents.
	Instrs uint64
	// RawAccesses, L1Hits, L2Hits summarize private-level behaviour.
	RawAccesses uint64
	L1Hits      uint64
	L2Hits      uint64
	// BaseCycles are cycles spent independent of the LLC scheme:
	// instructions at the base CPI plus private-level hit stalls.
	BaseCycles uint64
}

// Reader is a replayable LLC access trace: the simulator's view of a
// filtered app. The concrete implementations are *LLCTrace (heap
// columns), *MappedTrace (the same columns in a mapped .wtrc file) and
// the wrapper returned by Offset.
type Reader interface {
	// NewCursor returns an independent cursor positioned at the start.
	NewCursor() Cursor
	// NumAccesses is the total number of LLC accesses (demand + writeback).
	NumAccesses() int
	// Stats returns the private-level summary.
	Stats() Summary
}

// Cursor iterates a Reader's accesses in order. Reset rewinds to the
// start, which is how the simulator replays a trace across warmup and
// fixed-work (Loop) passes without re-decoding state.
type Cursor interface {
	Next() (LLCAccess, bool)
	Reset()
	// Err reports why Next stopped before NumAccesses accesses: nil at
	// a clean end of trace, ErrClosed after the backing MappedTrace was
	// closed, or a corrupt-column error. The error is sticky: Reset
	// keeps it, so a stopped cursor stays stopped.
	Err() error
}

// TraceReader is the full trace surface the tooling and harness consume:
// replayable like any Reader, plus the derived statistics CLI reports
// print. Both *LLCTrace and *MappedTrace satisfy it, so callers holding
// a TraceReader never care whether the columns live on the heap or in a
// mapping.
type TraceReader interface {
	Reader
	// DemandAccesses counts non-writeback accesses.
	DemandAccesses() uint64
	// LLCAPKI returns demand LLC accesses per kilo-instruction.
	LLCAPKI() float64
	// EncodedBytes reports the resident size of the columnar payload.
	EncodedBytes() int
}

// columns is a trace's access stream stored column-wise, in exactly the
// .wtrc payload layout: line deltas and instruction gaps as varints, the
// write/writeback flags as little-endian bitsets. An LLCTrace owns heap
// columns it appends to; a MappedTrace's columns are a read-only view of
// its file, produced by parseWTRC.
type columns struct {
	Summary

	n      int    // total accesses
	demand uint64 // non-writeback accesses

	deltas []byte // per access: uvarint(zigzag(line - prev line))
	gaps   []byte // per demand access: uvarint(gap)
	write  []byte // bitset over access index, 8*ceil(n/64) bytes: demand store
	wback  []byte // bitset over access index, 8*ceil(n/64) bytes: L2 dirty eviction
}

// NumAccesses implements Reader.
func (c *columns) NumAccesses() int { return c.n }

// Stats implements Reader.
func (c *columns) Stats() Summary { return c.Summary }

// DemandAccesses counts non-writeback accesses in the trace.
func (c *columns) DemandAccesses() uint64 { return c.demand }

// LLCAPKI returns demand LLC accesses per kilo-instruction.
func (c *columns) LLCAPKI() float64 {
	if c.Instrs == 0 {
		return 0
	}
	return float64(c.demand) / float64(c.Instrs) * 1000
}

// EncodedBytes reports the resident size of the columnar payload — the
// number the bench trajectory tracks (a []LLCAccess costs 16 bytes per
// access; this is typically 3-5). For a MappedTrace these are bytes
// shared with the page cache rather than heap.
func (c *columns) EncodedBytes() int {
	return len(c.deltas) + len(c.gaps) + len(c.write) + len(c.wback)
}

// LLCTrace is a core's filtered access stream plus the cycle/energy
// contributions of the private levels, held in heap columns — ~4x
// smaller than a []LLCAccess and byte-for-byte the .wtrc payload.
type LLCTrace struct {
	columns

	// Encoder state: the previous appended line (deltas chain off it).
	lastLine addr.Line
}

// zigzag maps signed deltas to unsigned varint-friendly values.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Append adds one access to the trace. Traces are append-only: the
// private filter is the only writer.
func (t *LLCTrace) Append(a LLCAccess) {
	i := uint(t.n)
	if i%64 == 0 {
		t.write = append(t.write, make([]byte, 8)...)
		t.wback = append(t.wback, make([]byte, 8)...)
	}
	// Line deltas use wrapping uint64 subtraction, so any jump — including
	// the 2^44-sized per-core mix offsets — round-trips exactly.
	t.deltas = binary.AppendUvarint(t.deltas, zigzag(int64(a.Line-t.lastLine)))
	t.lastLine = a.Line
	if a.Writeback {
		t.wback[i/8] |= 1 << (i % 8)
	} else {
		t.gaps = binary.AppendUvarint(t.gaps, uint64(a.Gap))
		t.demand++
	}
	if a.Write {
		t.write[i/8] |= 1 << (i % 8)
	}
	t.n++
}

// NewCursor implements Reader.
func (t *LLCTrace) NewCursor() Cursor { return &cursor{c: &t.columns} }

// cursor decodes a trace's columns sequentially; it serves heap and
// mapped traces alike. Every varint is bounds-checked, so a corrupt
// column stops the cursor with an error instead of a panic.
type cursor struct {
	c      *columns
	closed *atomic.Bool // the owning MappedTrace's flag; nil on the heap
	i      int
	dpos   int
	gpos   int
	line   addr.Line
	err    error
}

// Next implements Cursor. After Close, or on a malformed varint, it
// returns ok=false and records the cause for Err.
func (c *cursor) Next() (LLCAccess, bool) {
	t := c.c
	if c.err != nil || c.i >= t.n {
		return LLCAccess{}, false
	}
	if c.closed != nil && c.closed.Load() {
		c.err = ErrClosed
		return LLCAccess{}, false
	}
	u, k := binary.Uvarint(t.deltas[c.dpos:])
	if k <= 0 {
		c.err = fmt.Errorf("trace: corrupt .wtrc delta column at access %d", c.i)
		return LLCAccess{}, false
	}
	c.dpos += k
	c.line += addr.Line(unzigzag(u))
	i := c.i
	bit := byte(1) << (i & 7)
	a := LLCAccess{
		Line:      c.line,
		Writeback: t.wback[i>>3]&bit != 0,
		Write:     t.write[i>>3]&bit != 0,
	}
	if !a.Writeback {
		g, k := binary.Uvarint(t.gaps[c.gpos:])
		if k <= 0 || g > 1<<32-1 {
			c.err = fmt.Errorf("trace: corrupt .wtrc gap column at access %d", c.i)
			return LLCAccess{}, false
		}
		c.gpos += k
		a.Gap = uint32(g)
	}
	c.i++
	return a, true
}

// Reset implements Cursor, rewinding to the start. The error stays.
func (c *cursor) Reset() { *c = cursor{c: c.c, closed: c.closed, err: c.err} }

// Err implements Cursor.
func (c *cursor) Err() error { return c.err }

// Offset wraps a reader so every access line is shifted by off: how
// multi-programmed mixes give each core a disjoint address space without
// cloning the underlying trace.
func Offset(r Reader, off addr.Line) Reader {
	if off == 0 {
		return r
	}
	return &offsetReader{r: r, off: off}
}

type offsetReader struct {
	r   Reader
	off addr.Line
}

func (o *offsetReader) NewCursor() Cursor { return &offsetCursor{c: o.r.NewCursor(), off: o.off} }
func (o *offsetReader) NumAccesses() int  { return o.r.NumAccesses() }
func (o *offsetReader) Stats() Summary    { return o.r.Stats() }

type offsetCursor struct {
	c   Cursor
	off addr.Line
}

func (c *offsetCursor) Next() (LLCAccess, bool) {
	a, ok := c.c.Next()
	a.Line += c.off
	return a, ok
}

func (c *offsetCursor) Reset()     { c.c.Reset() }
func (c *offsetCursor) Err() error { return c.c.Err() }

// BaseCPI is the core's cycles-per-instruction when never stalled on the
// LLC (a Nehalem-like OOO sustains ~2 IPC on compute; docs/design.md
// documents the in-order stall substitution).
const BaseCPI = 0.5

// LLCStallFactor is the fraction of LLC access latency the core actually
// stalls for: OOO cores overlap a good part of LLC latency with
// independent work and memory-level parallelism. 0.5 calibrates the
// relative scheme gaps to the paper's reported magnitudes (docs/design.md).
const LLCStallFactor = 0.5

// FilterPrivate runs stream through private L1D and L2 and records the LLC
// access trace. The L2 is inclusive of the L1; L1 evictions due to L2
// evictions are implicit (we model hit/miss only). The filtered accesses
// stream straight into the columnar encoder — no intermediate slice.
func FilterPrivate(s Stream) *LLCTrace {
	l1 := cache.NewSetAssoc(L1Bytes, L1Ways, cache.LRU)
	l2 := cache.NewSetAssoc(L2Bytes, L2Ways, cache.LRU)
	t := &LLCTrace{}
	var gapAcc uint64
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		t.RawAccesses++
		t.Instrs += uint64(a.Gap)
		gapAcc += uint64(a.Gap)
		if hit, _, _ := l1.Access(a.Line, a.Write); hit {
			t.L1Hits++
			continue
		}
		hit, ev, evd := l2.Access(a.Line, a.Write)
		if hit {
			t.L2Hits++
			continue
		}
		// L2 miss: demand access to the LLC.
		g := gapAcc
		if g > 1<<31 {
			g = 1 << 31
		}
		t.Append(LLCAccess{
			Line:  a.Line,
			Gap:   uint32(g),
			Write: a.Write,
		})
		gapAcc = 0
		if evd && ev.Dirty {
			// Dirty L2 eviction: writeback to the LLC, off the
			// critical path.
			t.Append(LLCAccess{
				Line:      ev.Line,
				Writeback: true,
			})
		}
	}
	t.BaseCycles = uint64(float64(t.Instrs)*BaseCPI) + t.L2Hits*L2HitStall
	return t
}
