// Package mmap maps files read-only. It is the one place that knows
// which platforms have mmap: the trace cache and the result store both
// map through it, and both fall back to reading the file onto the heap
// when it reports ErrUnavailable.
package mmap

import (
	"errors"
	"os"
)

// ErrUnavailable reports that a file cannot be mapped here: the
// platform has no mmap, the size is zero or does not fit an int.
var ErrUnavailable = errors.New("mmap: unavailable")

// Map maps the first size bytes of f read-only and shared, so the bytes
// live in the page cache and become resident only when touched. unmap
// releases the mapping; nothing may read data after it. Touching a
// page that lies past the file's end (the file shrank after Map)
// raises SIGBUS, so callers must stop reading a mapping once its file
// may have shrunk.
func Map(f *os.File, size int64) (data []byte, unmap func() error, err error) {
	if size <= 0 || int64(int(size)) != size {
		return nil, nil, ErrUnavailable
	}
	return mapFile(f, int(size))
}
