package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"whirlpool/internal/experiments"
	"whirlpool/internal/obs"
	"whirlpool/internal/results"
)

// fetchTrace pulls a finished job's span tree off the trace endpoint.
func fetchTrace(t *testing.T, ts *httptest.Server, id string) []obs.Span {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("trace: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("trace content-type = %q", ct)
	}
	spans, err := obs.ParseSpans(resp.Body)
	if err != nil {
		t.Fatalf("trace did not parse as span JSONL: %v", err)
	}
	return spans
}

// TestTraceEndpointTree: a finished sweep's trace is one tree — a
// single root request span, the job span under it, and the engine's
// per-cell stage spans under the job — all sharing one trace ID.
func TestTraceEndpointTree(t *testing.T) {
	_, ts, _ := newTestServer(t)
	id, _ := postSweep(t, ts, smallSweep)["id"].(string)
	st := awaitJob(t, ts, id)
	if st["state"] != "done" {
		t.Fatalf("job state = %v", st)
	}
	spans := fetchTrace(t, ts, id)
	if len(spans) == 0 {
		t.Fatal("trace endpoint returned no spans")
	}

	trace := spans[0].Trace
	byID := map[obs.SpanID]obs.Span{}
	names := map[string]int{}
	roots := 0
	for _, sp := range spans {
		if sp.Trace != trace {
			t.Fatalf("span %s is in trace %s, want %s", sp.Name, sp.Trace, trace)
		}
		byID[sp.ID] = sp
		names[sp.Name]++
		if sp.Parent.IsZero() {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d roots, want exactly 1 (names: %v)", roots, names)
	}
	for _, want := range []string{"http.sweeps", "job", "sweep.cell", "sim.run", "store.commit"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span (got %v)", want, names)
		}
	}
	// Every non-root span's parent must exist in the collected set — a
	// broken parent link means the waterfall cannot attach it.
	for _, sp := range spans {
		if sp.Parent.IsZero() {
			continue
		}
		if _, ok := byID[sp.Parent]; !ok {
			t.Errorf("span %q parent %s not in trace", sp.Name, sp.Parent)
		}
	}
	// The status document advertises the trace ID the endpoint serves.
	if st["trace_id"] != trace.String() {
		t.Errorf("status trace_id = %v, want %s", st["trace_id"], trace)
	}
}

// TestTraceparentPropagation: a submit carrying a valid W3C traceparent
// joins the caller's trace; malformed or absent headers start a fresh
// root instead of failing or inheriting garbage.
func TestTraceparentPropagation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"

	submit := func(traceparent string) string {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/v1/sweeps", strings.NewReader(smallSweep))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if traceparent != "" {
			req.Header.Set("Traceparent", traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		var out struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.ID
	}

	traceOf := func(id string) string {
		st := awaitJob(t, ts, id)
		tid, _ := st["trace_id"].(string)
		if len(tid) != 32 {
			t.Fatalf("job %s trace_id = %q, want 32 hex digits", id, tid)
		}
		return tid
	}

	if got := traceOf(submit("00-" + callerTrace + "-00f067aa0ba902b7-01")); got != callerTrace {
		t.Errorf("valid traceparent: job trace = %s, want the caller's %s", got, callerTrace)
	}
	if got := traceOf(submit("00-zzzz2f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")); got == callerTrace {
		t.Error("malformed traceparent joined the caller's trace instead of starting fresh")
	}
	fresh1, fresh2 := traceOf(submit("")), traceOf(submit(""))
	if fresh1 == fresh2 {
		t.Errorf("two untraced submits share trace %s; each should root its own", fresh1)
	}
}

// TestTraceBeforeJobRuns: asking for a trace before the job has begun
// running is a 409 conflict, mirroring /rows.
func TestTraceBeforeJobRuns(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	// A handmade job that is still queued: no trace context yet.
	j := &job{id: "jq", state: "queued", changed: make(chan struct{})}
	srv.mu.Lock()
	srv.jobs[j.id] = j
	srv.order = append(srv.order, j.id)
	srv.mu.Unlock()
	resp, err := http.Get(ts.URL + "/v1/jobs/jq/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("trace of queued job: status %d, want 409", resp.StatusCode)
	}
}

// TestStreamInflightReleasedOnDisconnect: a client that disconnects
// mid-replay must release the stream endpoint's inflight slot promptly,
// not after the rest of a large replay is serialized into a dead socket.
func TestStreamInflightReleasedOnDisconnect(t *testing.T) {
	srv, ts, _ := newTestServer(t)

	// A running (never-terminal) job with a large replay backlog.
	j := &job{id: "jbig", state: "running", total: 1 << 20, changed: make(chan struct{})}
	row := experiments.SweepRow{App: "delaunay", Scheme: "jigsaw"}
	for i := 0; i < 200000; i++ {
		j.completed = append(j.completed, row)
	}
	srv.mu.Lock()
	srv.jobs[j.id] = j
	srv.order = append(srv.order, j.id)
	srv.mu.Unlock()

	var ep *endpoint
	for _, e := range srv.endpoints {
		if e.name == "stream" {
			ep = e
		}
	}
	if ep == nil {
		t.Fatal("no stream endpoint")
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/jbig/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one chunk so the stream is demonstrably mid-replay, then
	// vanish.
	buf := make([]byte, 4096)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first stream read: %v", err)
	}
	if got := ep.inflight.Load(); got != 1 {
		t.Fatalf("inflight during stream = %d, want 1", got)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(2 * time.Second)
	for ep.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream inflight stuck at %d after client disconnect", ep.inflight.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInstrumentAddsNoAllocs: the middleware wrapper — admission,
// histogram, and request span — must add zero heap allocations over the
// bare handler, keeping the warm /v1/results path allocation-free.
func TestInstrumentAddsNoAllocs(t *testing.T) {
	srv, _, _ := newTestServer(t)
	base := func(w http.ResponseWriter, r *http.Request) {}
	wrapped := srv.instrument(srv.newEndpoint("results"), false, base)

	req, err := http.NewRequest("GET", "/v1/results", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := nopResponseWriter{hdr: http.Header{}}
	// Warm the span pool and the histogram before measuring.
	for i := 0; i < 100; i++ {
		wrapped(w, req)
	}
	baseAllocs := testing.AllocsPerRun(200, func() { base(w, req) })
	wrappedAllocs := testing.AllocsPerRun(200, func() { wrapped(w, req) })
	if extra := wrappedAllocs - baseAllocs; extra > 0 {
		t.Fatalf("instrument adds %.1f allocs/request, want 0", extra)
	}
}

// resultsHandlerAllocs is the whole warm /v1/results handler's
// allocation budget at limit=50, middleware included: the one URL
// query parse, the store's Stat of rows.jsonl, and the Content-Type and
// Content-Length header values. Joining the 50 rows into the pooled
// body allocates nothing.
const resultsHandlerAllocs = 8

// TestResultsHandlerAllocs pins the allocations of a warm
// GET /v1/results?app=delaunay&limit=50 through the instrumented handler.
// Rows cost nothing per row, so a regression shows as a count above
// the pin; a change that lowers it should lower the pin too.
func TestResultsHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race, so the count is not exact")
	}
	srv, _, store := newTestServer(t)
	for i := 0; i < 60; i++ {
		row, _ := json.Marshal(map[string]any{"app": "delaunay", "scheme": "jigsaw", "cycles": 1000 + i})
		if err := store.Put(results.Record{Key: fmt.Sprintf("k%03d", i), App: "delaunay", Scheme: "jigsaw", Row: row}); err != nil {
			t.Fatal(err)
		}
	}
	h := srv.instrument(srv.newEndpoint("results"), false, srv.handleResults)
	req, err := http.NewRequest("GET", "/v1/results?app=delaunay&limit=50", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := nopResponseWriter{hdr: http.Header{}}
	for i := 0; i < 100; i++ {
		h(w, req)
	}
	if n := len(store.AppendRaw(results.Query{App: "delaunay", Limit: 50}, nil)); n != 50 {
		t.Fatalf("query matches %d records, want 50", n)
	}
	if got := testing.AllocsPerRun(200, func() { h(w, req) }); got != resultsHandlerAllocs {
		t.Fatalf("warm /v1/results handler = %v allocs/request, want %d", got, resultsHandlerAllocs)
	}
}

type nopResponseWriter struct{ hdr http.Header }

func (w nopResponseWriter) Header() http.Header         { return w.hdr }
func (w nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nopResponseWriter) WriteHeader(int)             {}
