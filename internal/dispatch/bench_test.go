package dispatch

import (
	"testing"

	"whirlpool/internal/fleet"
)

// BenchmarkAssignRound times one dispatch round's routing: 64 pending
// cells ranked over three members of unequal capacity (2, 4 and 8
// slots), so most cells find every ranked member full and defer to the
// next round, as they do at the start of a large sweep. One op is one
// assignRound call.
func BenchmarkAssignRound(b *testing.B) {
	alive := []fleet.Member{
		{ID: "w1", URL: "http://w1", Epoch: 1, Capacity: 2},
		{ID: "w2", URL: "http://w2", Epoch: 1, Capacity: 4},
		{ID: "w3", URL: "http://w3", Epoch: 1, Capacity: 8},
	}
	pending := refs(64)
	b.ReportAllocs()
	for b.Loop() {
		shards, deferred := assignRound(alive, pending)
		if len(shards) != len(alive) || len(deferred) != len(pending)-14 {
			b.Fatalf("assigned %d shards, deferred %d cells", len(shards), len(deferred))
		}
	}
}
