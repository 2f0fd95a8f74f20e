//go:build !race

package server

// raceEnabled reports a -race build, in which sync.Pool drops a share
// of its Puts on purpose and allocation counts stop being exact.
const raceEnabled = false
