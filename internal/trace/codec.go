// The .wtrc binary codec: a versioned record/replay format for filtered
// LLC traces. The on-disk layout is the in-memory columnar layout plus a
// fixed header and a CRC, so encoding writes the column buffers as they
// are and parsing slices them back out of the file image; see
// docs/trace-format.md for the byte-level reference.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Magic identifies a .wtrc file.
const Magic = "WTRC"

// FormatVersion is the current .wtrc format version. Bump it on any
// layout change; readers reject versions they do not understand, and the
// harness folds it into trace-cache keys so stale cache entries are
// never picked up.
const FormatVersion = 1

// maxSaneAccesses and maxSaneBytes bound the sizes a reader will
// believe: a corrupt header must not send the parser indexing far past
// the file before the CRC check has a chance to run.
const (
	maxSaneAccesses = 1 << 33
	maxSaneBytes    = 1 << 34
)

// headerBytes is the fixed header after magic+version: nine
// little-endian uint64s (n, demand, the five Summary counters, and the
// two varint column lengths).
const headerBytes = 9 * 8

// WriteTo encodes the trace in .wtrc format. It implements io.WriterTo.
func (t *LLCTrace) WriteTo(w io.Writer) (int64, error) { return t.writeTo(w) }

// writeTo encodes c in .wtrc format: header, the four columns as they
// are held in memory, then a CRC trailer over everything before it.
func (c *columns) writeTo(w io.Writer) (int64, error) {
	head := make([]byte, 0, 8+headerBytes)
	head = append(head, Magic...)
	head = binary.LittleEndian.AppendUint16(head, FormatVersion)
	head = append(head, 0, 0) // reserved
	for _, v := range []uint64{uint64(c.n), c.demand, c.Instrs, c.RawAccesses,
		c.L1Hits, c.L2Hits, c.BaseCycles, uint64(len(c.deltas)), uint64(len(c.gaps))} {
		head = binary.LittleEndian.AppendUint64(head, v)
	}
	crc := crc32.NewIEEE()
	var n int64
	for _, b := range [][]byte{head, c.deltas, c.gaps, c.write, c.wback} {
		crc.Write(b)
		k, err := w.Write(b)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	k, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return n + int64(k), err
}

// parseWTRC validates a complete .wtrc byte image — magic, version,
// header plausibility, column completeness, CRC, in that order — and
// returns its columns as capacity-limited subslices of data. It is the
// only .wtrc parser. It never copies the columns and never panics;
// varints are checked lazily, by the cursor that decodes them.
func parseWTRC(data []byte) (columns, error) {
	var c columns
	if len(data) < 4 {
		return c, fmt.Errorf("trace: not a .wtrc trace: %w", errShort(len(data)))
	}
	if string(data[:4]) != Magic {
		return c, fmt.Errorf("trace: not a .wtrc trace (bad magic %q)", data[:4])
	}
	if len(data) < 8 {
		return c, fmt.Errorf("trace: truncated header: %w", errShort(len(data)))
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != FormatVersion {
		return c, fmt.Errorf("trace: unsupported .wtrc version %d (this build reads version %d)", v, FormatVersion)
	}
	if len(data) < 8+headerBytes {
		return c, fmt.Errorf("trace: truncated header: %w", errShort(len(data)))
	}
	var h [9]uint64
	for i := range h {
		h[i] = binary.LittleEndian.Uint64(data[8+8*i:])
	}
	n, demand, lenDeltas, lenGaps := h[0], h[1], h[7], h[8]
	if n > maxSaneAccesses || demand > n || lenDeltas > maxSaneBytes || lenGaps > maxSaneBytes ||
		lenDeltas > 10*n || lenGaps > 10*n || (n > 0 && lenDeltas == 0) {
		return c, fmt.Errorf("trace: corrupt .wtrc header (n=%d demand=%d deltas=%d gaps=%d)",
			n, demand, lenDeltas, lenGaps)
	}
	// Column completeness: report the first column the bytes run out in.
	pos := uint64(8 + headerBytes)
	take := func(size uint64, what string) ([]byte, error) {
		if uint64(len(data))-pos < size {
			return nil, fmt.Errorf("trace: truncated %s: %w", what, errShort(len(data)))
		}
		col := data[pos : pos+size : pos+size]
		pos += size
		return col, nil
	}
	words := (n + 63) / 64
	var err error
	if c.deltas, err = take(lenDeltas, "delta column"); err != nil {
		return c, err
	}
	if c.gaps, err = take(lenGaps, "gap column"); err != nil {
		return c, err
	}
	if c.write, err = take(8*words, "flag bitsets"); err != nil {
		return c, err
	}
	if c.wback, err = take(8*words, "flag bitsets"); err != nil {
		return c, err
	}
	sum, err := take(4, "checksum")
	if err != nil {
		return c, err
	}
	want := crc32.ChecksumIEEE(data[:pos-4])
	if got := binary.LittleEndian.Uint32(sum); got != want {
		return c, fmt.Errorf("trace: .wtrc checksum mismatch (file %08x, computed %08x): corrupt trace", got, want)
	}
	c.n, c.demand = int(n), demand
	c.Summary = Summary{Instrs: h[2], RawAccesses: h[3], L1Hits: h[4], L2Hits: h[5], BaseCycles: h[6]}
	return c, nil
}

// errShort is the truncation cause for a byte image that ended early.
func errShort(n int) error {
	return fmt.Errorf("file is %d bytes: unexpected EOF", n)
}

// WriteFile atomically writes the trace to path in .wtrc format: the
// bytes land in a temp file in the same directory and are renamed into
// place, so concurrent readers (parallel sweep workers sharing a trace
// cache) never observe a partial file. r is an *LLCTrace or an open
// *MappedTrace (re-recording a mapped trace is bit-identical); Close
// must not run concurrently with the write.
func WriteFile(path string, r TraceReader) error {
	var c *columns
	switch r := r.(type) {
	case *LLCTrace:
		c = &r.columns
	case *MappedTrace:
		if r.closed.Load() {
			return fmt.Errorf("trace: writing %s: %w", path, ErrClosed)
		}
		c = &r.columns
	default:
		return fmt.Errorf("trace: writing %s: cannot encode a %T", path, r)
	}
	f, err := os.CreateTemp(filepath.Dir(path), ".wtrc-tmp-*")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	tmp := f.Name()
	if _, err := c.writeTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
