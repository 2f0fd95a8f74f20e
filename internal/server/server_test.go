package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"whirlpool/internal/experiments"
	"whirlpool/internal/results"
	"whirlpool/internal/schemes"
	"whirlpool/internal/trace"
	"whirlpool/internal/workloads"
)

// newTestServer builds a Server over a fresh store and exposes it via
// httptest, tearing both down with the test.
func newTestServer(t *testing.T) (*Server, *httptest.Server, *results.Store) {
	t.Helper()
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Workers: 2, Version: "test"})
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

func postSweep(t *testing.T, ts *httptest.Server, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", resp.StatusCode, out)
	}
	return out
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

// awaitJob polls a job until it reaches a terminal state.
func awaitJob(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st map[string]any
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("job status: %d", code)
		}
		if s, _ := st["state"].(string); isTerminal(s) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

const smallSweep = `{"apps":["delaunay"],"schemes":["jigsaw"],"scale":0.02}`

// TestSubmitRunRows: an HTTP-submitted sweep produces rows identical
// (modulo wall-clock) to a direct experiments.Sweep run.
func TestSubmitRunRows(t *testing.T) {
	_, ts, _ := newTestServer(t)
	sub := postSweep(t, ts, smallSweep)
	id, _ := sub["id"].(string)
	st := awaitJob(t, ts, id)
	if st["state"] != "done" {
		t.Fatalf("job state = %v", st)
	}
	if st["computed"] != float64(1) || st["served"] != float64(0) {
		t.Fatalf("cold job counters = %v", st)
	}

	var got []experiments.SweepRow
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/rows", &got); code != http.StatusOK {
		t.Fatalf("rows: %d", code)
	}
	h := experiments.NewHarness(0.02)
	want, err := h.Sweep(experiments.SweepConfig{
		Apps: []string{"delaunay"}, Kinds: []schemes.Kind{schemes.KindJigsaw}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("rows = %d, want 1", len(got))
	}
	a, b := got[0], want[0]
	a.WallMS, b.WallMS = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("HTTP row differs from direct run:\n  http:   %+v\n  direct: %+v", a, b)
	}
}

// TestWarmResubmitServesEverything: a resubmitted sweep is served
// entirely from the store — zero re-simulations, proven by counters.
func TestWarmResubmitServesEverything(t *testing.T) {
	_, ts, store := newTestServer(t)
	id1, _ := postSweep(t, ts, smallSweep)["id"].(string)
	awaitJob(t, ts, id1)
	misses := store.Stats().Misses

	id2, _ := postSweep(t, ts, smallSweep)["id"].(string)
	st := awaitJob(t, ts, id2)
	if st["state"] != "done" || st["served"] != float64(1) || st["computed"] != float64(0) {
		t.Fatalf("warm resubmit = %v, want 1 served / 0 computed", st)
	}
	if d := store.Stats().Misses - misses; d != 0 {
		t.Fatalf("warm resubmit missed the store %d times", d)
	}
}

// TestSSEStream: the stream replays finished rows to late subscribers
// and terminates with a done event carrying the final counters.
func TestSSEStream(t *testing.T) {
	_, ts, _ := newTestServer(t)
	id, _ := postSweep(t, ts, `{"apps":["delaunay","MIS"],"schemes":["jigsaw"],"scale":0.02}`)["id"].(string)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type = %q", ct)
	}
	var rows int
	var doneData string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event == "row" {
				var row experiments.SweepRow
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &row); err != nil {
					t.Fatalf("bad row event: %v", err)
				}
				rows++
			}
			if event == "done" {
				doneData = strings.TrimPrefix(line, "data: ")
			}
		}
		if doneData != "" {
			break
		}
	}
	if rows != 2 {
		t.Fatalf("stream delivered %d row events, want 2", rows)
	}
	var done map[string]any
	if err := json.Unmarshal([]byte(doneData), &done); err != nil || done["state"] != "done" {
		t.Fatalf("done event = %q (%v)", doneData, err)
	}

	// A subscriber arriving after completion gets the same history.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body := make([]byte, 64*1024)
	n, _ := resp2.Body.Read(body)
	replay := string(body[:n])
	if c := strings.Count(replay, "event: row"); c != 2 {
		t.Fatalf("late subscriber got %d row events, want 2 (stream: %.300s)", c, replay)
	}
}

// TestInlineSpecAndMix: an inline spec's apps and mixes sweep like
// whirlsweep -spec/-mix, and CSV rows match the direct writers.
func TestInlineSpecAndMix(t *testing.T) {
	t.Cleanup(workloads.SnapshotRegistry())
	_, ts, _ := newTestServer(t)
	req := `{
		"spec": {"apps": [{"name":"srv_kv","structs":[{"name":"x","bytes":"1MB","pattern":"zipf","param":0.8}],"accesses":100000}],
		         "mixes": [{"name":"srv_mix","apps":["srv_kv","MIS"]}]},
		"apps": ["srv_kv"],
		"mixes": ["all"],
		"schemes": ["jigsaw"],
		"scale": 0.5
	}`
	id, _ := postSweep(t, ts, req)["id"].(string)
	st := awaitJob(t, ts, id)
	if st["state"] != "done" {
		t.Fatalf("spec job = %v", st)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/rows?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + srv_kv app row + srv_mix row
		t.Fatalf("csv = %d lines: %q", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "srv_kv,jigsaw,false,") || !strings.HasPrefix(lines[2], "srv_mix,jigsaw,true,") {
		t.Fatalf("csv rows = %q", lines[1:])
	}
}

// TestResultsEndpoint: committed rows are queryable with filters.
func TestResultsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	id, _ := postSweep(t, ts, `{"apps":["delaunay","MIS"],"schemes":["jigsaw"],"scale":0.02}`)["id"].(string)
	awaitJob(t, ts, id)

	var recs []results.Record
	if code := getJSON(t, ts.URL+"/v1/results", &recs); code != http.StatusOK {
		t.Fatalf("results: %d", code)
	}
	if len(recs) != 2 {
		t.Fatalf("results = %d records, want 2", len(recs))
	}
	var filtered []results.Record
	getJSON(t, ts.URL+"/v1/results?app=MIS&scheme=jigsaw", &filtered)
	if len(filtered) != 1 || filtered[0].App != "MIS" {
		t.Fatalf("filtered results = %+v", filtered)
	}
	var row experiments.SweepRow
	if err := json.Unmarshal(filtered[0].Row, &row); err != nil || row.Cycles == 0 {
		t.Fatalf("record row payload = %s (%v)", filtered[0].Row, err)
	}
	var byKey []results.Record
	getJSON(t, ts.URL+"/v1/results?key="+filtered[0].Key, &byKey)
	if len(byKey) != 1 {
		t.Fatalf("key filter = %d records", len(byKey))
	}
}

// TestValidationErrors: malformed submissions fail fast with 400s, and
// unknown jobs 404.
func TestValidationErrors(t *testing.T) {
	_, ts, _ := newTestServer(t)
	bad := []string{
		`{"apps":["nosuchapp"]}`,
		`{"schemes":["bogus"],"apps":["delaunay"]}`,
		`{"mixes":["m"]}`,
		`{"scale":-1,"apps":["delaunay"]}`,
		`{"spec":{"apps":[{"name":"x"}]}}`,
		`{not json`,
		`{"unknown_field":1}`,
	}
	for _, body := range bad {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	for _, url := range []string{"/v1/jobs/j999", "/v1/jobs/j999/rows", "/v1/jobs/j999/stream"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", url, resp.StatusCode)
		}
	}
}

// TestCancelJob: DELETE cancels; completed cells stay committed so a
// resubmit resumes from the store.
func TestCancelJob(t *testing.T) {
	_, ts, _ := newTestServer(t)
	// A grid big enough to still be running when the cancel lands.
	id, _ := postSweep(t, ts, `{"apps":["all"],"scale":0.05}`)["id"].(string)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := awaitJob(t, ts, id)
	if st["state"] != "canceled" {
		t.Fatalf("after DELETE, state = %v", st)
	}
}

// TestHealthzAndMetrics: liveness and counters respond.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts, _ := newTestServer(t)
	id, _ := postSweep(t, ts, smallSweep)["id"].(string)
	awaitJob(t, ts, id)

	var hz map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if hz["ok"] != true || hz["version"] != "test" {
		t.Fatalf("healthz = %v", hz)
	}
	var list map[string][]map[string]any
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("jobs list: %d", code)
	}
	if len(list["jobs"]) != 1 || list["jobs"][0]["id"] != id {
		t.Fatalf("jobs list = %v", list)
	}
	var m map[string]any
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	jobs, _ := m["jobs"].(map[string]any)
	rows, _ := jobs["rows"].(map[string]any)
	if jobs["submitted"] != float64(1) || rows["computed"] != float64(1) {
		t.Fatalf("metrics.jobs = %v", m["jobs"])
	}
	srvM, _ := m["server"].(map[string]any)
	eps, _ := srvM["endpoints"].(map[string]any)
	sweeps, _ := eps["sweeps"].(map[string]any)
	lat, _ := sweeps["latency"].(map[string]any)
	if sweeps["requests"] != float64(1) || lat["count"] != float64(1) {
		t.Fatalf("metrics.server.endpoints.sweeps = %v", sweeps)
	}
	if _, ok := m["memstats"]; !ok {
		t.Fatal("metrics missing memstats")
	}
	disp, _ := m["dispatch"].(map[string]any)
	dw, _ := disp["workers"].(map[string]any)
	if pw, ok := dw["per_worker"].(map[string]any); !ok || len(pw) != 0 {
		t.Fatalf("metrics.dispatch = %v, want an empty per_worker before any dispatch", disp)
	}
}

// TestCloseDrains: Close cancels running jobs to a terminal state and
// later submits are rejected.
func TestCloseDrains(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := New(Config{Store: store, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, _ := postSweep(t, ts, `{"apps":["all"],"scale":0.05}`)["id"].(string)
	srv.Close()
	st := awaitJob(t, ts, id)
	if s, _ := st["state"].(string); !isTerminal(s) {
		t.Fatalf("after Close, job state = %v", st)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(smallSweep))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close: %d, want 503", resp.StatusCode)
	}
}

// TestZeroCycleRowRoundTrip: a zero-cycle cell (empty recorded trace)
// must round-trip through the SSE stream and /rows?format=json without
// dropped or malformed rows — the IPC 0/0 NaN would previously make
// json.Marshal fail and the stream silently skip the row.
func TestZeroCycleRowRoundTrip(t *testing.T) {
	t.Cleanup(workloads.SnapshotRegistry())
	_, ts, _ := newTestServer(t)
	p := filepath.Join(t.TempDir(), "empty.wtrc")
	if err := trace.WriteFile(p, &trace.LLCTrace{}); err != nil {
		t.Fatal(err)
	}
	req := fmt.Sprintf(`{"spec":{"apps":[{"name":"zc_srv","source":"trace","trace":%q}]},"apps":["zc_srv"],"schemes":["jigsaw"]}`, p)
	id, _ := postSweep(t, ts, req)["id"].(string)
	st := awaitJob(t, ts, id)
	if st["state"] != "done" || st["cell_errors"] != float64(0) {
		t.Fatalf("zero-cycle job = %v", st)
	}

	// The SSE stream must carry the row, parseable, not dropped.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rowEvents int
	var row experiments.SweepRow
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "row":
			rowEvents++
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &row); err != nil {
				t.Fatalf("zero-cycle row event unparsable: %v", err)
			}
		}
		if event == "done" {
			break
		}
	}
	if rowEvents != 1 {
		t.Fatalf("stream delivered %d row events, want 1 (zero-cycle row dropped?)", rowEvents)
	}
	if row.Cycles != 0 || row.IPC != 0 || row.Err != "" {
		t.Fatalf("zero-cycle row = %+v", row)
	}

	// And /rows?format=json must be valid JSON holding the row.
	var rows []experiments.SweepRow
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/rows?format=json", &rows); code != http.StatusOK {
		t.Fatalf("rows: %d", code)
	}
	if len(rows) != 1 || rows[0].Cycles != 0 || rows[0].IPC != 0 {
		t.Fatalf("rows = %+v", rows)
	}
}

// TestStreamSurfacesMarshalFailures: a row that cannot be marshaled
// (NaN smuggled into a float) becomes an error row event plus a metrics
// counter — never a silently shortened stream.
func TestStreamSurfacesMarshalFailures(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	j := &job{id: "jx", req: SweepRequest{}, total: 1, created: time.Now(), changed: make(chan struct{})}
	j.state = "done"
	j.completed = []experiments.SweepRow{{App: "bad", Scheme: "jigsaw", IPC: math.NaN()}}
	j.result = j.completed
	srv.mu.Lock()
	srv.jobs[j.id] = j
	srv.order = append(srv.order, j.id)
	srv.mu.Unlock()

	resp, err := http.Get(ts.URL + "/v1/jobs/jx/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events, errRows int
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "row":
			events++
			var row experiments.SweepRow
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &row); err != nil {
				t.Fatalf("surfaced row unparsable: %v", err)
			}
			if row.App == "bad" && strings.Contains(row.Err, "not representable") {
				errRows++
			}
		}
		if event == "done" {
			break
		}
	}
	if events != 1 || errRows != 1 {
		t.Fatalf("stream delivered %d events (%d marshal-error rows), want 1/1", events, errRows)
	}
	if got := srv.metrics.rowMarshalErrs.Load(); got != 1 {
		t.Fatalf("rows.marshal_errors = %d, want 1", got)
	}

	// A second subscriber replays the same corrupt row; the counter
	// tracks corrupt rows, not stream attachments.
	resp2, err := http.Get(ts.URL + "/v1/jobs/jx/stream")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	n, _ := resp2.Body.Read(buf)
	resp2.Body.Close()
	if !strings.Contains(string(buf[:n]), "not representable") {
		t.Fatalf("replay lost the surfaced error row: %.200s", buf[:n])
	}
	if got := srv.metrics.rowMarshalErrs.Load(); got != 1 {
		t.Fatalf("rows.marshal_errors = %d after a replay, want still 1", got)
	}
}

// TestResultsLimitValidation: ?limit= must be a clean non-negative
// integer — Sscanf used to accept "10abc" as 10.
func TestResultsLimitValidation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	id, _ := postSweep(t, ts, `{"apps":["delaunay","MIS"],"schemes":["jigsaw"],"scale":0.02}`)["id"].(string)
	awaitJob(t, ts, id)

	for _, lim := range []string{"10abc", "abc", "-1", "1.5", "0x10", " 1"} {
		resp, err := http.Get(ts.URL + "/v1/results?limit=" + url.QueryEscape(lim))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("limit=%q: status %d, want 400", lim, resp.StatusCode)
		}
	}
	var recs []results.Record
	if code := getJSON(t, ts.URL+"/v1/results?limit=1", &recs); code != http.StatusOK || len(recs) != 1 {
		t.Fatalf("limit=1: code %d, %d records", code, len(recs))
	}
	if code := getJSON(t, ts.URL+"/v1/results?limit=0", &recs); code != http.StatusOK || len(recs) != 2 {
		t.Fatalf("limit=0 (unlimited): code %d, %d records", code, len(recs))
	}
}

// TestCanceledJobDoneReachesTotal: canceled cells flow through the
// progress path, so a canceled job's done counter reaches total and SSE
// subscribers see every cell (canceled ones included) before done.
func TestCanceledJobDoneReachesTotal(t *testing.T) {
	_, ts, _ := newTestServer(t)
	id, _ := postSweep(t, ts, `{"apps":["all"],"scale":0.05}`)["id"].(string)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := awaitJob(t, ts, id)
	if st["state"] != "canceled" {
		t.Fatalf("state = %v", st)
	}
	if st["done"] != st["total"] {
		t.Fatalf("canceled job frozen at done=%v of total=%v", st["done"], st["total"])
	}
	if st["cells_canceled"] == nil || st["cells_canceled"].(float64) == 0 {
		t.Fatalf("no canceled cells recorded: %v", st)
	}

	// The replayed stream carries the canceled rows, then done.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var rowEvents, canceledRows int
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "row":
			rowEvents++
			if strings.Contains(line, `"canceled"`) {
				canceledRows++
			}
		}
		if event == "done" {
			break
		}
	}
	if rowEvents != int(st["total"].(float64)) {
		t.Fatalf("stream replayed %d rows of %v total", rowEvents, st["total"])
	}
	if canceledRows == 0 {
		t.Fatal("no canceled rows in the stream")
	}
}

// TestDuplicateAppsRejected: duplicate names in apps would silently
// sweep (and double-commit) duplicate cells; they are 400s now.
func TestDuplicateAppsRejected(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"apps":["delaunay","MIS","delaunay"],"schemes":["jigsaw"],"scale":0.02}`))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate apps: status %d (%v), want 400", resp.StatusCode, body)
	}
	if env, _ := body["error"].(map[string]any); env["code"] != "bad_request" ||
		!strings.Contains(env["message"].(string), "duplicate app") {
		t.Fatalf("error = %v", body["error"])
	}

	// Duplicate schemes cross into identical cells the same way.
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"apps":["delaunay"],"schemes":["jigsaw","jigsaw"],"scale":0.02}`))
	if err != nil {
		t.Fatal(err)
	}
	body = nil
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate schemes: status %d (%v), want 400", resp.StatusCode, body)
	}
	if env, _ := body["error"].(map[string]any); env["code"] != "bad_request" ||
		!strings.Contains(env["message"].(string), "duplicate scheme") {
		t.Fatalf("error = %v", body["error"])
	}
}

// TestQueueFullDoesNotBurnIDs: a 503 on a full queue must not consume a
// job id — the next accepted job gets the next sequential id.
func TestQueueFullDoesNotBurnIDs(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := New(Config{Store: store, Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// j1 occupies the runner; wait until it actually runs so the queue
	// slot is free for j2.
	id1, _ := postSweep(t, ts, `{"apps":["all"],"scale":0.05}`)["id"].(string)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st map[string]any
		getJSON(t, ts.URL+"/v1/jobs/"+id1, &st)
		if st["state"] == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started: %v", id1, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	id2, _ := postSweep(t, ts, smallSweep)["id"].(string)
	if id1 != "j1" || id2 != "j2" {
		t.Fatalf("ids = %s, %s", id1, id2)
	}
	// The queue (depth 1) is now full: this submit must 503.
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(smallSweep))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full queue: status %d, want 503", resp.StatusCode)
	}

	// Unblock the runner and resubmit until accepted: the id must be j3
	// — a burned sequence number would make it j4.
	for _, id := range []string{id1, id2} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	awaitJob(t, ts, id1)
	awaitJob(t, ts, id2)
	var id3 string
	for time.Now().Before(deadline) {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(smallSweep))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			id3, _ = out["id"].(string)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if id3 != "j3" {
		t.Fatalf("post-503 submit got id %q, want j3 (rejections must not burn ids)", id3)
	}
}

// TestAllIncludesSpecApps: apps:["all"] with an inline spec must cover
// the spec's own apps too (registration is deferred to run time, so
// the union is computed at submit), matching whirlsweep -spec -apps all.
func TestAllIncludesSpecApps(t *testing.T) {
	t.Cleanup(workloads.SnapshotRegistry())
	_, ts, _ := newTestServer(t)
	req := `{"spec":{"apps":[{"name":"srv_union","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}]},
	         "apps":["all"],"schemes":["jigsaw"],"scale":0.02}`
	// Count before submitting: the runner registers the spec app the
	// moment the job starts.
	want := float64(len(workloads.Names()) + 1)
	sub := postSweep(t, ts, req)
	if sub["total"] != want {
		t.Fatalf("total = %v, want %v (registry + the spec's app)", sub["total"], want)
	}
	// Don't simulate the whole suite: cancel and just require a clean
	// terminal state.
	id, _ := sub["id"].(string)
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	awaitJob(t, ts, id)
}
