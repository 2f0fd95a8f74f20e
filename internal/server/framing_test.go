package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"whirlpool/internal/experiments"
	"whirlpool/internal/obs"
	"whirlpool/internal/results"
)

// The legacy* helpers render bodies the way the handlers streamed them
// straight into the ResponseWriter before responses were buffered: the
// byte-identity half of the framing tests compares against them.

// legacyJSON is the old writeJSON body: json.Encoder, two-space
// indent, trailing newline.
func legacyJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// legacyErr is the old httpErr body: the envelope, unindented.
func legacyErr(t *testing.T, code, msg string) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(map[string]any{
		"error": map[string]string{"code": code, "message": msg},
	}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// legacyResults is the old /v1/results body: the raw store lines
// joined as one JSON array.
func legacyResults(raws [][]byte) []byte {
	b := []byte("[")
	for i, raw := range raws {
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, raw...)
	}
	return append(b, "]\n"...)
}

// legacyRows renders rows with one of the experiments writers.
func legacyRows(t *testing.T, write func(io.Writer, []experiments.SweepRow) error, rows []experiments.SweepRow) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := write(&b, rows); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// legacySSE is the old event stream of a finished job: one row event
// per completed row, then the done event.
func legacySSE(t *testing.T, j *job) []byte {
	t.Helper()
	var b bytes.Buffer
	j.mu.Lock()
	rows := append([]experiments.SweepRow(nil), j.completed...)
	j.mu.Unlock()
	for i, row := range rows {
		data, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "id: %d\nevent: row\ndata: %s\n\n", i+1, data)
	}
	data, _ := json.Marshal(j.status())
	fmt.Fprintf(&b, "event: done\ndata: %s\n\n", data)
	return b.Bytes()
}

// finishedJob runs a two-cell sweep to completion and waits until its
// root span has ended, so the job's trace no longer changes.
func finishedJob(t *testing.T, srv *Server, ts *httptest.Server) *job {
	t.Helper()
	id, _ := postSweep(t, ts, `{"apps":["delaunay","MIS"],"schemes":["jigsaw"],"scale":0.02}`)["id"].(string)
	if st := awaitJob(t, ts, id); st["state"] != "done" {
		t.Fatalf("job = %v", st)
	}
	srv.mu.Lock()
	j := srv.jobs[id]
	srv.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, sp := range srv.tracer.Collect(j.traceContext().Trace) {
			if sp.Name == "job" {
				return j
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the job span never ended")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// getSized fetches path and checks its framing: a Content-Length equal
// to the body length and no chunked transfer encoding.
func getSized(t *testing.T, ts *httptest.Server, path string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d: %s", path, resp.StatusCode, wantStatus, body)
	}
	if len(resp.TransferEncoding) != 0 {
		t.Errorf("GET %s: Transfer-Encoding %v, want none", path, resp.TransferEncoding)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("GET %s: Content-Length %q for a %d-byte body", path, cl, len(body))
	}
	return body
}

// TestSizedResponses: every non-stream endpoint sends Content-Length,
// no chunked encoding, and the same bytes its streaming writer did.
func TestSizedResponses(t *testing.T) {
	srv, ts, store := newTestServer(t)
	j := finishedJob(t, srv, ts)
	rows, _ := j.resultRows()
	spans := srv.tracer.Collect(j.traceContext().Trace)
	var trace []byte
	for i := range spans {
		trace = append(obs.AppendSpanJSON(trace, &spans[i]), '\n')
	}
	jobPath := "/v1/jobs/" + j.id

	for _, c := range []struct {
		path   string
		status int
		want   []byte
	}{
		{"/v1/results", http.StatusOK, legacyResults(store.AppendRaw(results.Query{}, nil))},
		{"/v1/results?app=MIS&limit=1", http.StatusOK, legacyResults(store.AppendRaw(results.Query{App: "MIS", Limit: 1}, nil))},
		{"/v1/jobs", http.StatusOK, legacyJSON(t, map[string]any{"jobs": []map[string]any{j.status()}})},
		{jobPath, http.StatusOK, legacyJSON(t, j.status())},
		{jobPath + "/rows", http.StatusOK, legacyRows(t, experiments.WriteRowsJSON, rows)},
		{jobPath + "/rows?format=csv", http.StatusOK, legacyRows(t, experiments.WriteRowsCSV, rows)},
		{jobPath + "/rows?format=table", http.StatusOK, legacyRows(t, experiments.WriteRowsTable, rows)},
		{jobPath + "/trace", http.StatusOK, trace},
		{"/v1/jobs/nope", http.StatusNotFound, legacyErr(t, errNotFound, `no such job "nope"`)},
	} {
		if got := getSized(t, ts, c.path, c.status); !bytes.Equal(got, c.want) {
			t.Errorf("GET %s body changed:\n got: %.300s\nwant: %.300s", c.path, got, c.want)
		}
	}

	// /metrics changes with every request (uptime, memstats, its own
	// latency histogram), so its framing is checked over HTTP and its
	// bytes against the old writers on one snapshot.
	var tree map[string]any
	if err := json.Unmarshal(getSized(t, ts, "/metrics", http.StatusOK), &tree); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	getSized(t, ts, "/metrics?format=prom", http.StatusOK)

	snap := srv.snapshotMetrics().tree()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, snap)
	if want := legacyJSON(t, snap); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("metrics JSON changed:\n got: %.300s\nwant: %.300s", rec.Body.Bytes(), want)
	}
	promReq := httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil)
	for attempt := 1; ; attempt++ {
		// Retry across an uptime_s tick between the two renders.
		rec := httptest.NewRecorder()
		srv.handleMetrics(rec, promReq)
		var want bytes.Buffer
		srv.snapshotMetrics().writeProm(&want)
		if bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			break
		}
		if attempt == 3 {
			t.Fatalf("metrics prom changed:\n got: %.300s\nwant: %.300s", rec.Body.Bytes(), want.Bytes())
		}
	}
}

// TestWriteJSONEncodeFailure: a value that cannot be encoded becomes a
// 500 envelope, not a 200 with a truncated body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"x": func() {}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var env struct {
		Error struct{ Code string } `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != errInternal {
		t.Fatalf("body = %s (%v), want an internal envelope", rec.Body.Bytes(), err)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
}

// flushRecorder is a ResponseRecorder that logs each Write and Flush
// in order. The stream handler runs in its own goroutine, so every
// access takes mu.
type flushRecorder struct {
	mu  sync.Mutex
	rec *httptest.ResponseRecorder
	ops []string
}

func newFlushRecorder() *flushRecorder { return &flushRecorder{rec: httptest.NewRecorder()} }

func (f *flushRecorder) Header() http.Header { return f.rec.Header() }

func (f *flushRecorder) WriteHeader(code int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rec.WriteHeader(code)
}

func (f *flushRecorder) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, "write")
	return f.rec.Write(p)
}

func (f *flushRecorder) Flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, "flush")
	f.rec.Flush()
}

// snapshot returns the ops so far and the body written so far.
func (f *flushRecorder) snapshot() ([]string, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.ops...), f.rec.Body.String()
}

// TestStreamFinishedJobOneWrite: the stream of a finished job is one
// Write and one Flush, with the same event bytes as before.
func TestStreamFinishedJobOneWrite(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	j := finishedJob(t, srv, ts)
	fr := newFlushRecorder()
	srv.Handler().ServeHTTP(fr, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.id+"/stream", nil))
	ops, body := fr.snapshot()
	if fmt.Sprint(ops) != "[write flush]" {
		t.Fatalf("finished-job stream ops = %v, want [write flush]", ops)
	}
	if want := legacySSE(t, j); body != string(want) {
		t.Fatalf("stream bytes changed:\n got: %.400s\nwant: %.400s", body, want)
	}
	if ct := fr.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
}

// TestStreamRunningJobFlushesHeaders: a stream over a job with nothing
// to send yet flushes its headers at once, then one Write and Flush per
// wakeup.
func TestStreamRunningJobFlushesHeaders(t *testing.T) {
	srv, _, _ := newTestServer(t)
	j := &job{id: "jr", total: 1, created: time.Now(), changed: make(chan struct{})}
	j.state = "running"
	srv.mu.Lock()
	srv.jobs[j.id] = j
	srv.order = append(srv.order, j.id)
	srv.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fr := newFlushRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/jr/stream", nil).WithContext(ctx)
		srv.Handler().ServeHTTP(fr, req)
	}()
	await := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			ops, _ := fr.snapshot()
			if fmt.Sprint(ops) == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("stream ops = %v, want %s", ops, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	await("[flush]")
	row := experiments.SweepRow{App: "delaunay", Scheme: "jigsaw", Cycles: 42}
	j.addRow(1, 1, row)
	await("[flush write flush]")
	j.finish([]experiments.SweepRow{row}, experiments.SweepStats{Computed: 1}, "done", "")
	await("[flush write flush write flush]")
	<-done
	if _, body := fr.snapshot(); body != string(legacySSE(t, j)) {
		t.Fatalf("stream bytes changed:\n got: %.400s\nwant: %.400s", body, legacySSE(t, j))
	}
}
