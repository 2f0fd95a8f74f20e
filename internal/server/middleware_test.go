package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"whirlpool/internal/results"
)

// TestEndpointShedding: overdriving one endpoint past its concurrency
// limit sheds with 429 + Retry-After and counts into server.shed and
// the endpoint's own counter — while other endpoints keep serving.
func TestEndpointShedding(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:          store,
		Workers:        1,
		EndpointLimits: map[string]int{"results": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); store.Close() })

	var ep *endpoint
	for _, e := range srv.endpoints {
		if e.name == "results" {
			ep = e
		}
	}
	if ep == nil {
		t.Fatal("no results endpoint")
	}
	// Park one request inside the endpoint by taking its single slot, so
	// the burst below overdrives it under any scheduling: a race between
	// the burst's own requests overlaps only sometimes.
	ep.inflight.Add(1)
	const n = 8
	var wg sync.WaitGroup
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/results")
			if err != nil {
				codes <- 0
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("shed 429 without Retry-After")
				}
				var body struct {
					Error struct {
						Code string `json:"code"`
					} `json:"error"`
				}
				if json.NewDecoder(resp.Body).Decode(&body) != nil || body.Error.Code != "overloaded" {
					t.Errorf("shed body code = %q, want overloaded", body.Error.Code)
				}
			}
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	shed := 0
	for c := range codes {
		if c != http.StatusTooManyRequests {
			t.Fatalf("status %d with the endpoint at its limit, want 429", c)
		}
		shed++
	}
	if got := srv.metrics.shed.Load(); got != int64(shed) {
		t.Fatalf("server.shed = %d, want %d", got, shed)
	}
	if got := ep.shed.Load(); got != int64(shed) {
		t.Fatalf("results shed = %d, want %d", got, shed)
	}

	// Other endpoints are isolated: healthz still serves.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during results shedding: %v %v", err, resp)
	}
	resp.Body.Close()

	// Once the parked request leaves, the limit admits again.
	ep.inflight.Add(-1)
	resp, err = http.Get(ts.URL + "/v1/results")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("results after the slot freed: %v %v", err, resp)
	}
	resp.Body.Close()
}

// TestEndpointSheddingDeterministic drives the admission gate directly:
// with the endpoint's single slot occupied, the next request must shed.
func TestEndpointSheddingDeterministic(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:          store,
		EndpointLimits: map[string]int{"results": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); store.Close() })

	var ep *endpoint
	for _, e := range srv.endpoints {
		if e.name == "results" {
			ep = e
		}
	}
	if ep == nil || ep.limit != 1 {
		t.Fatalf("results endpoint limit = %+v, want 1", ep)
	}
	ep.inflight.Add(1) // a request parked inside the endpoint
	defer ep.inflight.Add(-1)

	req := httptest.NewRequest(http.MethodGet, "/v1/results", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want 1", rec.Header().Get("Retry-After"))
	}
	if !strings.Contains(rec.Body.String(), `"code": "overloaded"`) &&
		!strings.Contains(rec.Body.String(), `"code":"overloaded"`) {
		t.Fatalf("body = %s", rec.Body.String())
	}
	if srv.metrics.shed.Load() != 1 || ep.shed.Load() != 1 {
		t.Fatalf("shed counters = %d/%d, want 1/1", srv.metrics.shed.Load(), ep.shed.Load())
	}

	// The slot freeing admits the next request again.
	ep.inflight.Add(-1)
	defer ep.inflight.Add(1)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/results", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-shed status = %d, want 200", rec.Code)
	}
}

// TestUnlimitedEndpointsNeverShed: healthz and metrics have no limit —
// they must stay reachable precisely when everything else sheds.
func TestUnlimitedEndpointsNeverShed(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	for _, ep := range srv.endpoints {
		if ep.name == "healthz" || ep.name == "metrics" {
			if ep.limit != 0 {
				t.Fatalf("%s limit = %d, want unlimited", ep.name, ep.limit)
			}
		}
	}
	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz: %v %v", err, resp)
		}
		resp.Body.Close()
	}
}

// TestLatencyRecorded: serving a request populates its endpoint's
// histogram in /metrics.
func TestLatencyRecorded(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/results")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var m map[string]any
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	srvM := m["server"].(map[string]any)
	eps := srvM["endpoints"].(map[string]any)
	res := eps["results"].(map[string]any)
	lat := res["latency"].(map[string]any)
	if lat["count"] != float64(3) {
		t.Fatalf("results latency count = %v, want 3", lat["count"])
	}
	for _, k := range []string{"p50_ms", "p95_ms", "p99_ms", "mean_ms"} {
		if _, ok := lat[k].(float64); !ok {
			t.Fatalf("latency %s missing: %v", k, lat)
		}
	}
}
