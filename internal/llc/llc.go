// Package llc defines the interface every evaluated last-level cache
// organization implements, and the data classification hook that maps
// accesses to virtual caches.
package llc

import (
	"whirlpool/internal/addr"
	"whirlpool/internal/mem"
	"whirlpool/internal/trace"
)

// Outcome classifies the result of a demand LLC access.
type Outcome uint8

// Access outcomes.
const (
	Hit Outcome = iota
	Miss
	Bypass
)

// LLC is a last-level cache organization under evaluation.
type LLC interface {
	// Name identifies the scheme ("Whirlpool", "Jigsaw", ...).
	Name() string
	// Access processes one access from core. For demand accesses it
	// returns the latency the core observes and the outcome; writebacks
	// return zero latency.
	Access(core int, a trace.LLCAccess) (latency uint64, out Outcome)
	// Tick informs the scheme of the current cycle so periodic runtimes
	// (Jigsaw's OS reconfigurations, Awasthi's migrations) can fire.
	Tick(now uint64)
}

// VCKey identifies a virtual cache: the owning core (or SharedVC) plus the
// memory pool. Plain Jigsaw uses Pool 0 for everything; Whirlpool gives
// each pool its own VC.
type VCKey struct {
	Core int16 // owning core, or SharedVC for process-shared VCs
	Pool mem.PoolID
}

// SharedVC marks a VC accessed by multiple cores (the process VC).
const SharedVC int16 = -1

// Classifier maps an access to its virtual cache. Implementations combine
// page→pool lookups (static classification) with ownership (thread-private
// vs process pages), mirroring the paper's TLB-based mechanism.
type Classifier func(core int, line addr.Line) VCKey

// ThreadPrivate classifies everything into the accessing core's private
// VC: baseline Jigsaw on single-threaded apps.
func ThreadPrivate(core int, _ addr.Line) VCKey {
	return VCKey{Core: int16(core), Pool: 0}
}

// ProcessShared classifies everything into one process VC: baseline Jigsaw
// on parallel apps, where work-stealing makes most pages multi-threaded.
func ProcessShared(int, addr.Line) VCKey {
	return VCKey{Core: SharedVC, Pool: 0}
}

// PoolPrivate builds a Whirlpool classifier for single-threaded apps: each
// pool gets a per-core VC. poolOf maps a line to its pool (the simulated
// page-table/TLB lookup).
func PoolPrivate(poolOf func(addr.Line) mem.PoolID) Classifier {
	return func(core int, line addr.Line) VCKey {
		return VCKey{Core: int16(core), Pool: poolOf(line)}
	}
}
