package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"whirlpool/internal/results"
)

// postJSON posts a JSON body and decodes the JSON response.
func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// newElasticCoordinator boots a daemon with no static workers and the
// given lease TTL; workers are expected to join via POST /v1/workers.
func newElasticCoordinator(t *testing.T, ttl time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Workers: 2, LeaseTTL: ttl, Version: "coord"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		store.Close()
	})
	return srv, ts
}

// TestWorkersEndpointLifecycle drives the full lease protocol over
// HTTP: register, list, heartbeat, stale-epoch fencing, deregister.
func TestWorkersEndpointLifecycle(t *testing.T) {
	_, ts := newElasticCoordinator(t, 10*time.Second)

	// Register.
	code, reg := postJSON(t, ts.URL+"/v1/workers", `{"url":"http://w:9000","capacity":3}`)
	if code != http.StatusOK {
		t.Fatalf("register: %d: %v", code, reg)
	}
	id, _ := reg["id"].(string)
	if id == "" || reg["epoch"] != float64(1) || reg["lease_ttl_s"] != float64(10) {
		t.Fatalf("register response = %v", reg)
	}
	if hb := reg["heartbeat_s"].(float64); hb <= 0 || hb > 10.0/3+0.01 {
		t.Fatalf("heartbeat_s = %v", hb)
	}

	// Listed as alive, with the declared capacity.
	var list map[string]any
	getJSON(t, ts.URL+"/v1/workers", &list)
	if list["alive"] != float64(1) {
		t.Fatalf("workers list = %v", list)
	}
	ws := list["workers"].([]any)[0].(map[string]any)
	if ws["id"] != id || ws["url"] != "http://w:9000" || ws["capacity"] != float64(3) || ws["alive"] != true {
		t.Fatalf("worker entry = %v", ws)
	}

	// Heartbeat at the right epoch renews; load sample is surfaced.
	code, hb := postJSON(t, ts.URL+"/v1/workers/"+id+"/heartbeat",
		`{"epoch":1,"load":{"inflight_cells":5,"queued_cells":2,"cells_per_sec":1.5}}`)
	if code != http.StatusOK || hb["lease_ttl_s"] != float64(10) {
		t.Fatalf("heartbeat: %d: %v", code, hb)
	}
	getJSON(t, ts.URL+"/v1/workers", &list)
	ws = list["workers"].([]any)[0].(map[string]any)
	load := ws["load"].(map[string]any)
	if load["inflight_cells"] != float64(5) || load["queued_cells"] != float64(2) {
		t.Fatalf("load after heartbeat = %v", ws)
	}

	// A stale epoch is fenced with 404.
	if code, body := postJSON(t, ts.URL+"/v1/workers/"+id+"/heartbeat", `{"epoch":0}`); code != http.StatusNotFound {
		t.Fatalf("stale-epoch heartbeat: %d: %v", code, body)
	}

	// Graceful leave; later heartbeats are 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: %d", resp.StatusCode)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/workers/"+id+"/heartbeat", `{"epoch":1}`); code != http.StatusNotFound {
		t.Fatalf("heartbeat after leave: %d", code)
	}
	getJSON(t, ts.URL+"/v1/workers", &list)
	if list["alive"] != float64(0) {
		t.Fatalf("alive after leave = %v", list)
	}
}

// TestWorkersEndpointValidation: malformed registrations are 400s.
func TestWorkersEndpointValidation(t *testing.T) {
	_, ts := newElasticCoordinator(t, time.Second)
	for _, body := range []string{
		`{"url":""}`,
		`{"url":"not-a-url"}`,
		`{"url":"ftp://w:1"}`,
		`{"url":"http://w:1","capacity":1,"bogus":true}`,
		`not json`,
	} {
		if code, resp := postJSON(t, ts.URL+"/v1/workers", body); code != http.StatusBadRequest {
			t.Errorf("register %q: %d %v, want 400", body, code, resp)
		}
	}
}

// TestElasticDispatch: a worker that joins by registration alone (no
// -workers flag anywhere) receives a sweep's cells, and the fleet
// metrics trace the membership.
func TestElasticDispatch(t *testing.T) {
	worker, wstore := newWorkerServer(t)
	srv, coord := newElasticCoordinator(t, 10*time.Second)

	// Before any registration the daemon simulates locally.
	if n := len(srv.fleet.Snapshot().Members); n != 0 {
		t.Fatalf("fresh elastic coordinator has %d members", n)
	}

	code, reg := postJSON(t, coord.URL+"/v1/workers", `{"url":"`+worker.URL+`","capacity":2}`)
	if code != http.StatusOK {
		t.Fatalf("join: %d: %v", code, reg)
	}

	id, _ := postSweep(t, coord, `{"apps":["delaunay","MIS"],"scale":0.02}`)["id"].(string)
	st := awaitJob(t, coord, id)
	if st["state"] != "done" {
		t.Fatalf("elastic job = %v", st)
	}
	total := int(st["total"].(float64))
	if st["computed"] != float64(total) {
		t.Fatalf("elastic counters = %v", st)
	}
	// Every cell went through the joined worker, not local simulation.
	if wstore.Len() < total {
		t.Fatalf("worker store has %d rows, want >= %d", wstore.Len(), total)
	}

	var m map[string]any
	getJSON(t, coord.URL+"/metrics", &m)
	fl := m["fleet"].(map[string]any)
	if fl["alive"] != float64(1) || fl["registrations"] != float64(1) {
		t.Fatalf("fleet metrics = %v", fl)
	}
	dw := m["dispatch"].(map[string]any)["workers"].(map[string]any)
	per := dw["per_worker"].(map[string]any)
	if _, ok := per[worker.URL]; !ok {
		t.Fatalf("per_worker missing %s: %v", worker.URL, per)
	}
}

// TestLeaseExpiryFailsOver: a joined worker that stops heartbeating is
// dead once its lease lapses — the roster says so, the metrics count
// it, and the next sweep runs without it (locally, here, since it was
// the only member).
func TestLeaseExpiryFailsOver(t *testing.T) {
	srv, coord := newElasticCoordinator(t, 100*time.Millisecond)
	code, reg := postJSON(t, coord.URL+"/v1/workers", `{"url":"http://w:9000","capacity":1}`)
	if code != http.StatusOK {
		t.Fatalf("join: %d: %v", code, reg)
	}

	deadline := time.Now().Add(5 * time.Second)
	for len(srv.fleet.Snapshot().Members) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var list map[string]any
	getJSON(t, coord.URL+"/v1/workers", &list)
	if list["alive"] != float64(0) {
		t.Fatalf("roster after expiry = %v", list)
	}
	ws := list["workers"].([]any)[0].(map[string]any)
	if ws["alive"] != false || ws["reason"] != "lease expired" {
		t.Fatalf("expired worker entry = %v", ws)
	}
	var m map[string]any
	getJSON(t, coord.URL+"/metrics", &m)
	fl := m["fleet"].(map[string]any)
	if fl["leases_expired"] != float64(1) || fl["dead"] != float64(1) {
		t.Fatalf("fleet metrics after expiry = %v", fl)
	}

	// With the fleet empty again, sweeps simulate locally.
	id, _ := postSweep(t, coord, `{"apps":["delaunay"],"schemes":["jigsaw"],"scale":0.02}`)["id"].(string)
	if st := awaitJob(t, coord, id); st["state"] != "done" || st["computed"] != float64(1) {
		t.Fatalf("local fallback job = %v", st)
	}
}

// TestStaticWorkerURLValidatedAtStartup: a bad -workers URL fails
// daemon construction, preserving the pre-fleet startup contract.
func TestStaticWorkerURLValidatedAtStartup(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := New(Config{Store: store, WorkerURLs: []string{"not-a-url"}}); err == nil ||
		!strings.Contains(err.Error(), "not-a-url") {
		t.Fatalf("bad static worker URL accepted: %v", err)
	}
}

// TestRegisterRejectedWhileDraining: a draining daemon refuses new
// fleet members the same way it refuses new jobs.
func TestRegisterRejectedWhileDraining(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Close()
	code, body := postJSON(t, ts.URL+"/v1/workers", `{"url":"http://w:9000"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("register while draining: %d: %v", code, body)
	}
}

// TestServerLoadSamples: Load reports queued/in-flight cells and a
// completion rate — the sample a worker whirld ships in heartbeats.
func TestServerLoadSamples(t *testing.T) {
	srv, ts := newElasticCoordinator(t, time.Second)
	if l := srv.Load(); l.InflightCells != 0 || l.QueuedCells != 0 {
		t.Fatalf("idle load = %+v", l)
	}
	id, _ := postSweep(t, ts, `{"apps":["delaunay"],"schemes":["jigsaw"],"scale":0.02}`)["id"].(string)
	if st := awaitJob(t, ts, id); st["state"] != "done" {
		t.Fatalf("job = %v", st)
	}
	// After completion nothing is in flight, and the rate numerator
	// (cellsDone) advanced.
	l := srv.Load()
	if l.InflightCells != 0 || l.QueuedCells != 0 {
		t.Fatalf("post-job load = %+v", l)
	}
	if srv.cellsDone.Load() == 0 {
		t.Fatal("cellsDone never advanced")
	}
	if l2 := srv.Load(); l2.CellsPerSec < 0 {
		t.Fatalf("negative rate: %+v", l2)
	}
}
