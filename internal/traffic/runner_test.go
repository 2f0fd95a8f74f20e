package traffic

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"whirlpool/internal/apiclient"
)

// fakeDaemon implements just enough of whirld's v1 surface for the
// runner: results/jobs GETs, a sweep submit whose job finishes after
// one poll, and a per-endpoint shed switch.
type fakeDaemon struct {
	results atomic.Int64
	jobs    atomic.Int64
	sweeps  atomic.Int64
	// shedResults, when set, answers /v1/results with 429 + Retry-After.
	shedResults atomic.Bool
}

func (f *fakeDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/results", func(w http.ResponseWriter, r *http.Request) {
		if f.shedResults.Load() {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{
				"error": map[string]string{"code": "overloaded", "message": "results concurrency limit reached"},
			})
			return
		}
		f.results.Add(1)
		w.Write([]byte("[]"))
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.jobs.Add(1)
		w.Write([]byte("[]"))
	})
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		f.sweeps.Add(1)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "j1"})
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"id": "j1", "state": "done"})
	})
	return mux
}

func testClient(t *testing.T, h http.Handler) (*apiclient.Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	api, err := apiclient.New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return api, ts
}

// TestRunMixedClasses: a three-class spec drives all three ops, meets
// its floors, and reports quantiles per class.
func TestRunMixedClasses(t *testing.T) {
	f := &fakeDaemon{}
	api, _ := testClient(t, f.handler())
	spec, err := Parse([]byte(`{
	  "seed": 11,
	  "clients": [
	    {"id": "readers", "op": "results", "rate": 150, "concurrency": 4,
	     "arrival": "poisson", "slo": {"p99_ms": 1000}, "min_rps": 40},
	    {"id": "pollers", "op": "jobs", "rate": 60, "arrival": "bursty",
	     "burst": {"size": 6}},
	    {"id": "resubmits", "op": "sweep", "rate": 10, "concurrency": 2,
	     "wait": true, "sweep": {"apps": ["mcf"]}}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), api, spec, Options{Duration: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(rep.Classes) != 3 {
		t.Fatalf("classes = %d", len(rep.Classes))
	}
	byID := map[string]*ClassReport{}
	for i := range rep.Classes {
		byID[rep.Classes[i].ID] = &rep.Classes[i]
	}
	if byID["readers"].OK == 0 || byID["pollers"].OK == 0 || byID["resubmits"].OK == 0 {
		t.Fatalf("some class issued nothing: %+v", rep.Classes)
	}
	if f.results.Load() == 0 || f.jobs.Load() == 0 || f.sweeps.Load() == 0 {
		t.Fatalf("daemon counters: results=%d jobs=%d sweeps=%d",
			f.results.Load(), f.jobs.Load(), f.sweeps.Load())
	}
	r := byID["readers"]
	if r.P99MS < r.P50MS {
		t.Fatalf("p99 %.3f < p50 %.3f", r.P99MS, r.P50MS)
	}
	if r.Errors != 0 {
		t.Fatalf("reader errors: %v", r.SampleErrors)
	}
}

// TestRunCountsShedSeparately: back-pressure (429 with the envelope) is
// its own column — not a success, not an error.
func TestRunCountsShedSeparately(t *testing.T) {
	f := &fakeDaemon{}
	f.shedResults.Store(true)
	api, _ := testClient(t, f.handler())
	spec, err := Parse([]byte(`{
	  "seed": 3,
	  "clients": [{"id": "readers", "op": "results", "rate": 100}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), api, spec, Options{Duration: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Classes[0]
	if c.Shed == 0 || c.OK != 0 || c.Errors != 0 {
		t.Fatalf("class = %+v, want all requests shed", c)
	}
}

// TestRunSLOBreachFailsCheck: an impossible SLO makes Check return a
// descriptive error.
func TestRunSLOBreachFailsCheck(t *testing.T) {
	f := &fakeDaemon{}
	api, _ := testClient(t, f.handler())
	spec, err := Parse([]byte(`{
	  "clients": [{"id": "readers", "op": "results", "rate": 200,
	    "min_rps": 1000000}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), api, spec, Options{Duration: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cerr := rep.Check()
	if cerr == nil || !strings.Contains(cerr.Error(), "below floor") {
		t.Fatalf("Check = %v, want floor violation", cerr)
	}
}

// TestRunTimesFromDueTime: one ~50 ms server stall under a constant
// 100 rps class with one worker. The requests due during the stall
// queue behind it, and their latencies must include that wait (about
// 40 + 30 + 20 + 10 ms on top of the stall's own 50), rather than
// starting the clock when the worker finally picks them up.
func TestRunTimesFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	var n atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/results", func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.Write([]byte("[]"))
	})
	api, _ := testClient(t, mux)
	spec, err := Parse([]byte(`{
	  "clients": [{"id": "readers", "op": "results", "rate": 100}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), api, spec, Options{Duration: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Classes[0]
	if c.OK < 10 || c.Errors != 0 || n.Load() < 5 {
		t.Fatalf("class = %+v after %d requests, want the stall and at least 10 OK", c, n.Load())
	}
	// Timed from pickup, the latencies sum to about the stall alone.
	if sum := c.MeanMS * float64(c.OK); sum < 2.4*float64(stall.Milliseconds()) {
		t.Fatalf("latencies sum to %.1f ms, want the queued requests' wait on top of the %v stall", sum, stall)
	}
	// The generator itself never waits for the stalled worker.
	if c.LateP99MS < 0 || c.LateP99MS >= float64(stall.Milliseconds()) {
		t.Fatalf("generator lateness p99 = %.2f ms, want below the %v stall", c.LateP99MS, stall)
	}
}

// TestRunDeterministicSchedule: two runs of one spec issue the same
// number of requests per class (the schedule, not the latencies, is
// the deterministic part).
func TestRunDeterministicSchedule(t *testing.T) {
	spec, err := Parse([]byte(`{
	  "seed": 9,
	  "clients": [{"id": "readers", "op": "results", "rate": 150,
	    "arrival": "poisson", "concurrency": 8}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	counts := [2]int{}
	for i := range counts {
		f := &fakeDaemon{}
		api, _ := testClient(t, f.handler())
		rep, err := Run(context.Background(), api, spec, Options{Duration: 300 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = rep.Classes[0].Sent
	}
	// The generator is deterministic; the only slack is requests in
	// flight at the deadline.
	diff := counts[0] - counts[1]
	if diff < 0 {
		diff = -diff
	}
	if diff > 3 {
		t.Fatalf("runs issued %d vs %d requests; schedule should be deterministic", counts[0], counts[1])
	}
}

// TestReportTable: the table renderer includes every class and flags
// failures.
func TestReportTable(t *testing.T) {
	rep := &Report{
		Base: "http://x", DurationS: 1, Seed: 1,
		Classes: []ClassReport{
			{ID: "good", Op: "results", Sent: 10, OK: 10, RPS: 10, SLO: &SLO{P99MS: 100}, P99MS: 1},
			{ID: "bad", Op: "jobs", Sent: 10, OK: 10, RPS: 10, MinRPS: 50,
				Violations: []string{"bad: achieved 10.0 rps below floor 50"}},
		},
	}
	var b strings.Builder
	rep.WriteTable(&b)
	out := b.String()
	for _, want := range []string{"good", "bad", "pass", "FAIL", "below floor"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
