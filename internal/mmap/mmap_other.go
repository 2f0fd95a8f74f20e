//go:build !unix

package mmap

import "os"

// mapFile on platforms without a usable mmap syscall always reports
// ErrUnavailable; callers read the file onto the heap instead.
func mapFile(*os.File, int) ([]byte, func() error, error) {
	return nil, nil, ErrUnavailable
}
