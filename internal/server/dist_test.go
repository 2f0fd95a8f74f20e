package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"whirlpool/internal/experiments"
	"whirlpool/internal/results"
	"whirlpool/internal/schemes"
	"whirlpool/internal/workloads"
)

// newWorkerServer boots a plain (non-coordinator) daemon with its own
// store, as one node of a distributed fleet.
func newWorkerServer(t *testing.T) (*httptest.Server, *results.Store) {
	t.Helper()
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Workers: 2, Version: "worker"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		store.Close()
	})
	return ts, store
}

// newCoordinator boots a daemon in coordinator mode over the given
// worker URLs, with its own store.
func newCoordinator(t *testing.T, workerURLs ...string) (*Server, *httptest.Server, *results.Store) {
	t.Helper()
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Workers: 2, WorkerURLs: workerURLs, Version: "coord"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		store.Close()
	})
	return srv, ts, store
}

// TestCellsEndpoint: POST /v1/cells runs exactly the named cells and
// produces rows bit-identical to a direct sweep of the same cells.
func TestCellsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	body := `{"cells":[{"app":"delaunay","scheme":"jigsaw"},{"app":"MIS","scheme":"snuca-lru"}],"scale":0.02}`
	resp, err := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub map[string]any
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cells submit: %d: %v", resp.StatusCode, sub)
	}
	id, _ := sub["id"].(string)
	if sub["total"] != float64(2) {
		t.Fatalf("total = %v, want 2", sub["total"])
	}
	st := awaitJob(t, ts, id)
	if st["state"] != "done" || st["computed"] != float64(2) {
		t.Fatalf("cells job = %v", st)
	}
	var got []experiments.SweepRow
	getJSON(t, ts.URL+"/v1/jobs/"+id+"/rows", &got)
	h := experiments.NewHarness(0.02)
	want, err := h.Sweep(experiments.SweepConfig{Cells: []experiments.SweepCell{
		{App: "delaunay", Scheme: "jigsaw"}, {App: "MIS", Scheme: "snuca-lru"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("rows = %d", len(got))
	}
	for i := range got {
		a, b := got[i], want[i]
		a.WallMS, b.WallMS = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cells row %d differs:\n  http:   %+v\n  direct: %+v", i, a, b)
		}
	}
	var m map[string]any
	getJSON(t, ts.URL+"/metrics", &m)
	jobsM, _ := m["jobs"].(map[string]any)
	if jobsM["shards"] != float64(1) {
		t.Fatalf("shard counter = %v", m["jobs"])
	}
}

// TestCellsValidation: malformed shard requests are 400s.
func TestCellsValidation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	bad := []string{
		`{}`,
		`{"cells":[]}`,
		`{"cells":[{"scheme":"jigsaw"}]}`,
		`{"cells":[{"app":"nosuchapp","scheme":"jigsaw"}]}`,
		`{"cells":[{"mix":"nosuchmix","scheme":"jigsaw"}]}`,
		`{"cells":[{"app":"delaunay","scheme":"bogus"}]}`,
		`{"cells":[{"app":"delaunay","mix":"m","scheme":"jigsaw"}]}`,
		`{"cells":[{"app":"delaunay","scheme":"jigsaw"},{"app":"delaunay","scheme":"jigsaw"}]}`,
		`{"cells":[{"app":"delaunay","scheme":"jigsaw"}],"scale":-2}`,
	}
	for _, body := range bad {
		resp, err := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("cells %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestDistributedBitIdentity: a sweep sharded across two worker daemons
// — spec apps, builtin apps, and a mix — merges into a grid
// bit-identical to a single-node run, with a per-worker split in the
// job status, and a warm resubmit served entirely by the coordinator.
func TestDistributedBitIdentity(t *testing.T) {
	t.Cleanup(workloads.SnapshotRegistry())
	w1, w1store := newWorkerServer(t)
	w2, w2store := newWorkerServer(t)
	_, coord, _ := newCoordinator(t, w1.URL, w2.URL)

	req := `{
		"spec": {"apps": [{"name":"dist_kv","structs":[{"name":"x","bytes":"1MB","pattern":"zipf","param":0.8}],"accesses":100000}],
		         "mixes": [{"name":"dist_mix","apps":["dist_kv","MIS"]}]},
		"apps": ["dist_kv", "delaunay", "MIS"],
		"mixes": ["all"],
		"schemes": ["jigsaw", "snuca-lru"],
		"scale": 0.5
	}`
	sub := postSweep(t, coord, req)
	id, _ := sub["id"].(string)
	st := awaitJob(t, coord, id)
	if st["state"] != "done" {
		t.Fatalf("distributed job = %v", st)
	}
	total := int(st["total"].(float64))
	if total != 8 { // (3 apps + 1 mix) × 2 schemes
		t.Fatalf("total = %d, want 8", total)
	}
	if st["done"] != float64(total) || st["computed"] != float64(total) {
		t.Fatalf("distributed counters = %v", st)
	}

	// The per-worker split is surfaced and sums to the full grid.
	workersAny, ok := st["workers"].([]any)
	if !ok || len(workersAny) != 2 {
		t.Fatalf("status has no per-worker split: %v", st)
	}
	sumComputed := 0
	for _, wa := range workersAny {
		wm := wa.(map[string]any)
		sumComputed += int(wm["computed"].(float64))
		if wm["dead"] == true {
			t.Fatalf("healthy worker marked dead: %v", wm)
		}
	}
	if sumComputed != total {
		t.Fatalf("workers computed %d of %d cells", sumComputed, total)
	}

	// Bit-identity against a single-node run of the same grid.
	var got []experiments.SweepRow
	getJSON(t, coord.URL+"/v1/jobs/"+id+"/rows", &got)
	h := experiments.NewHarness(0.5)
	want, err := h.Sweep(experiments.SweepConfig{
		Apps: []string{"dist_kv", "delaunay", "MIS"},
		Mixes: []experiments.SweepMix{{
			Name: "dist_mix", Apps: []string{"dist_kv", "MIS"},
		}},
		Kinds: []schemes.Kind{schemes.KindJigsaw, schemes.KindSNUCALRU},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("distributed rows = %d, single-node = %d", len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		a.WallMS, b.WallMS = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("row %d differs:\n  distributed: %+v\n  single-node: %+v", i, a, b)
		}
	}

	// Every computed row landed in the coordinator's store AND in the
	// computing worker's own.
	if w1store.Len()+w2store.Len() < total {
		t.Fatalf("worker stores hold %d + %d rows, want >= %d", w1store.Len(), w2store.Len(), total)
	}

	// Warm resubmit: the coordinator serves everything from its store —
	// no dispatch, no re-simulation anywhere.
	w1c, w2c := w1store.Stats().Puts, w2store.Stats().Puts
	id2, _ := postSweep(t, coord, req)["id"].(string)
	st2 := awaitJob(t, coord, id2)
	if st2["state"] != "done" || st2["served"] != float64(total) || st2["computed"] != float64(0) {
		t.Fatalf("warm resubmit = %v", st2)
	}
	if w1store.Stats().Puts != w1c || w2store.Stats().Puts != w2c {
		t.Fatal("warm resubmit reached the workers")
	}
}

// TestDistributedRegistryLeakedApps: apps that live only in the
// coordinator's registry (registered by an earlier job's spec) must
// still be computable by workers — the coordinator forwards a
// synthesized spec defining every app the grid touches.
func TestDistributedRegistryLeakedApps(t *testing.T) {
	t.Cleanup(workloads.SnapshotRegistry())
	w1, _ := newWorkerServer(t)
	_, coord, _ := newCoordinator(t, w1.URL)

	// Job 1 registers leak_app into the coordinator's global registry.
	spec1 := `{
		"spec": {"apps": [{"name":"leak_app","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}],"accesses":100000}]},
		"apps": ["leak_app"], "schemes": ["jigsaw"], "scale": 0.5
	}`
	id1, _ := postSweep(t, coord, spec1)["id"].(string)
	if st := awaitJob(t, coord, id1); st["state"] != "done" {
		t.Fatalf("spec job = %v", st)
	}

	// Job 2 names it with NO spec: the worker has never seen leak_app,
	// so only the forwarded synthesized spec makes this computable.
	// Different seed so nothing is served from the store.
	id2, _ := postSweep(t, coord, `{"apps":["leak_app","delaunay"],"schemes":["jigsaw"],"scale":0.5,"seed":7}`)["id"].(string)
	st := awaitJob(t, coord, id2)
	if st["state"] != "done" || st["computed"] != float64(2) || st["cell_errors"] != float64(0) {
		t.Fatalf("registry-leaked distributed job = %v", st)
	}
	var rows []experiments.SweepRow
	getJSON(t, coord.URL+"/v1/jobs/"+id2+"/rows", &rows)
	for _, r := range rows {
		if r.Err != "" || r.Cycles == 0 {
			t.Fatalf("leaked-app row = %+v", r)
		}
	}
}

// TestDistributedUnsweptMixNotForwarded: a spec mix the job does NOT
// sweep may reference spec-only apps outside the swept grid; the
// forwarded spec must omit it, or worker-side validation rejects the
// whole shard.
func TestDistributedUnsweptMixNotForwarded(t *testing.T) {
	t.Cleanup(workloads.SnapshotRegistry())
	w1, _ := newWorkerServer(t)
	_, coord, _ := newCoordinator(t, w1.URL)
	req := `{
		"spec": {"apps": [{"name":"fwd_a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}],"accesses":100000},
		                  {"name":"fwd_b","structs":[{"name":"y","bytes":"1MB","pattern":"rand"}],"accesses":100000}],
		         "mixes": [{"name":"fwd_m","apps":["fwd_b","MIS"]}]},
		"apps": ["fwd_a"], "schemes": ["jigsaw"], "scale": 0.5
	}`
	id, _ := postSweep(t, coord, req)["id"].(string)
	st := awaitJob(t, coord, id)
	if st["state"] != "done" || st["computed"] != float64(1) || st["cell_errors"] != float64(0) {
		t.Fatalf("job with unswept spec mix = %v", st)
	}
}

// deadWorkerFake accepts shards and then drops the SSE stream without
// delivering anything — the brutal kill -9 shape of worker death.
func deadWorkerFake(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": "doomed"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.(http.Flusher).Flush()
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestDistributedDeadWorker: a worker dying mid-sweep does not lose the
// job — its shard re-dispatches to the survivor and every cell lands.
func TestDistributedDeadWorker(t *testing.T) {
	healthy, _ := newWorkerServer(t)
	dying := deadWorkerFake(t)
	srv, coord, _ := newCoordinator(t, healthy.URL, dying.URL)

	id, _ := postSweep(t, coord, `{"apps":["delaunay","MIS"],"scale":0.02}`)["id"].(string)
	st := awaitJob(t, coord, id)
	if st["state"] != "done" {
		t.Fatalf("job with dead worker = %v", st)
	}
	total := int(st["total"].(float64))
	if st["done"] != float64(total) || st["computed"] != float64(total) {
		t.Fatalf("counters with dead worker = %v", st)
	}
	var rows []experiments.SweepRow
	getJSON(t, coord.URL+"/v1/jobs/"+id+"/rows", &rows)
	if len(rows) != total {
		t.Fatalf("rows = %d, want %d", len(rows), total)
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("cell error after re-dispatch: %+v", r)
		}
	}
	var deadStats map[string]any
	for _, wa := range st["workers"].([]any) {
		wm := wa.(map[string]any)
		if wm["worker"] == dying.URL {
			deadStats = wm
		}
	}
	if deadStats == nil || deadStats["dead"] != true {
		t.Fatalf("dying worker not marked dead: %v", st["workers"])
	}
	if deadStats["redispatched"].(float64) == 0 {
		t.Fatalf("no cells re-dispatched off the dead worker: %v", deadStats)
	}
	if got := srv.metrics.workersLost.Load(); got != 1 {
		t.Fatalf("workers_lost = %d, want 1", got)
	}
	if srv.metrics.redispatched.Load() == 0 {
		t.Fatal("redispatched counter not bumped")
	}
}

// TestDistributedAllWorkersDead: with no survivors the job fails but
// still accounts for every cell as an error row.
func TestDistributedAllWorkersDead(t *testing.T) {
	dying := deadWorkerFake(t)
	_, coord, _ := newCoordinator(t, dying.URL)
	id, _ := postSweep(t, coord, `{"apps":["delaunay"],"schemes":["jigsaw"],"scale":0.02}`)["id"].(string)
	st := awaitJob(t, coord, id)
	if st["state"] != "failed" {
		t.Fatalf("all-dead job = %v", st)
	}
	if st["done"] != st["total"] {
		t.Fatalf("all-dead job left cells unaccounted: %v", st)
	}
	var rows []experiments.SweepRow
	getJSON(t, coord.URL+"/v1/jobs/"+id+"/rows", &rows)
	for _, r := range rows {
		if !strings.Contains(r.Err, "workers failed") {
			t.Fatalf("row not marked with dispatch failure: %+v", r)
		}
	}
}

// TestCellsJobNeverRedispatches: a coordinator that receives a shard
// (POST /v1/cells) simulates it locally instead of forwarding — the
// recursion anchor of the fleet.
func TestCellsJobNeverRedispatches(t *testing.T) {
	// Coordinator pointing at a worker that would fail any forwarded
	// shard; the cells job must succeed anyway, locally.
	dying := deadWorkerFake(t)
	_, coord, _ := newCoordinator(t, dying.URL)
	body := `{"cells":[{"app":"delaunay","scheme":"jigsaw"}],"scale":0.02}`
	resp, err := http.Post(coord.URL+"/v1/cells", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub map[string]any
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	id, _ := sub["id"].(string)
	st := awaitJob(t, coord, id)
	if st["state"] != "done" || st["computed"] != float64(1) {
		t.Fatalf("cells job on a coordinator = %v", st)
	}
}
