package experiments

import (
	"reflect"
	"testing"

	"whirlpool/internal/schemes"
)

// mkJobs builds a fake grid of single-app cells with the given names.
func mkJobs(names ...string) []sweepJob {
	jobs := make([]sweepJob, len(names))
	for i, n := range names {
		jobs[i] = sweepJob{app: n, kind: schemes.KindSNUCALRU}
	}
	return jobs
}

// flatten re-serializes batches for coverage checks.
func flatten(batches [][]int) []int {
	var out []int
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

func TestBatchByAppGroups(t *testing.T) {
	// The common grid shape: apps × schemes, cells for one app adjacent.
	jobs := mkJobs("a", "a", "a", "b", "b", "b", "c", "c", "c")
	served := make([]bool, len(jobs))
	batches := batchByApp(jobs, served, 3)
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3 (one per app): %v", len(batches), batches)
	}
	for _, b := range batches {
		name := jobs[b[0]].name()
		for _, i := range b {
			if jobs[i].name() != name {
				t.Fatalf("batch %v mixes apps", b)
			}
		}
	}
	if got := flatten(batches); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("coverage broken: %v", got)
	}
}

func TestBatchByAppInterleaved(t *testing.T) {
	// Shard grids can interleave apps; grouping must still collect them.
	jobs := mkJobs("a", "b", "a", "b", "a", "b")
	served := make([]bool, len(jobs))
	batches := batchByApp(jobs, served, 2)
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2: %v", len(batches), batches)
	}
	if !reflect.DeepEqual(batches[0], []int{0, 2, 4}) || !reflect.DeepEqual(batches[1], []int{1, 3, 5}) {
		t.Fatalf("grouping wrong: %v", batches)
	}
}

func TestBatchByAppChunksOneApp(t *testing.T) {
	// One app dominating the grid must still spread across the pool.
	jobs := mkJobs("a", "a", "a", "a", "a", "a", "a", "a")
	served := make([]bool, len(jobs))
	batches := batchByApp(jobs, served, 4)
	if len(batches) != 4 {
		t.Fatalf("got %d batches, want 4: %v", len(batches), batches)
	}
	for _, b := range batches {
		if len(b) > 2 { // ceil(8/4)
			t.Fatalf("batch %v exceeds the chunk cap", b)
		}
	}
	if got, want := flatten(batches), []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("coverage broken: %v", got)
	}
}

func TestBatchByAppSkipsServed(t *testing.T) {
	jobs := mkJobs("a", "a", "b", "b")
	served := []bool{true, false, false, true}
	batches := batchByApp(jobs, served, 1)
	if got, want := flatten(batches), []int{1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("served cells leaked into batches: %v", batches)
	}
	if b := batchByApp(jobs, []bool{true, true, true, true}, 4); b != nil {
		t.Fatalf("fully served grid produced batches: %v", b)
	}
}

// TestSweepBatchedRowIdentity crosses worker counts (which change how
// cells batch onto workers) and requires identical rows: batching must
// be invisible in the output.
func TestSweepBatchedRowIdentity(t *testing.T) {
	apps := []string{"delaunay", "MIS"}
	kinds := []schemes.Kind{schemes.KindSNUCALRU, schemes.KindWhirlpool}
	mix := SweepMix{Name: "mix1", Apps: []string{"delaunay", "MIS"}}
	var base []SweepRow
	for _, workers := range []int{1, 4} {
		h := NewHarness(0.03)
		rows, err := h.Sweep(SweepConfig{
			Apps: apps, Mixes: []SweepMix{mix}, Kinds: kinds, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range rows {
			rows[i].WallMS = 0 // host timing is the one legitimately varying field
		}
		if base == nil {
			base = rows
			continue
		}
		if !reflect.DeepEqual(base, rows) {
			t.Fatalf("workers=%d changed rows:\n%+v\nvs\n%+v", workers, rows, base)
		}
	}
}
