package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whirlpool/internal/experiments"
	"whirlpool/internal/fleet"
	"whirlpool/internal/obs"
)

// logCapture is an io.Writer collecting whole log lines for assertions.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (c *logCapture) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.lines = append(c.lines, strings.TrimRight(string(p), "\n"))
	c.mu.Unlock()
	return len(p), nil
}

func (c *logCapture) all() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines...)
}

func refs(n int) []experiments.CellRef {
	out := make([]experiments.CellRef, n)
	for i := range out {
		out[i] = experiments.CellRef{
			Index: i,
			Cell:  experiments.SweepCell{App: fmt.Sprintf("app%d", i), Scheme: "jigsaw"},
			Key:   fmt.Sprintf("%064d", i),
		}
	}
	return out
}

// bigQuota removes the per-round cap, collapsing dispatch to one round
// per fleet generation — the closest shape to pre-fleet behavior, used
// by tests that only care about failure handling.
func bigQuota(fleet.Member) int { return 1 << 20 }

// fakeWorker speaks just enough of the whirld protocol to be dispatched
// to: POST /v1/cells accepts a shard, the SSE stream fabricates one row
// per cell (cycles = a fingerprint of the worker), then a done event.
// dieAfter >= 0 makes the stream die after that many rows, before the
// done event — the "worker killed mid-shard" failure.
type fakeWorker struct {
	t         *testing.T
	fp        uint64
	dieAfter  int
	mu        sync.Mutex
	jobs      map[string][]experiments.SweepCell
	seq       int
	submitted int
	canceled  int
	// traceparents records the Traceparent header of each shard submit,
	// for propagation assertions.
	traceparents []string
}

func newFakeWorker(t *testing.T, fp uint64, dieAfter int) (*fakeWorker, *httptest.Server) {
	f := &fakeWorker{t: t, fp: fp, dieAfter: dieAfter, jobs: map[string][]experiments.SweepCell{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cells", f.handleCells)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", f.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.canceled++
		f.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return f, ts
}

func (f *fakeWorker) handleCells(w http.ResponseWriter, r *http.Request) {
	var req CellsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f.mu.Lock()
	f.seq++
	f.submitted += len(req.Cells)
	id := fmt.Sprintf("j%d", f.seq)
	f.jobs[id] = req.Cells
	f.traceparents = append(f.traceparents, r.Header.Get("Traceparent"))
	f.mu.Unlock()
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{"id": id})
}

func (f *fakeWorker) handleStream(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	cells := f.jobs[r.PathValue("id")]
	f.mu.Unlock()
	w.Header().Set("Content-Type", "text/event-stream")
	w.WriteHeader(http.StatusOK)
	fl := w.(http.Flusher)
	for i, c := range cells {
		if f.dieAfter >= 0 && i >= f.dieAfter {
			fl.Flush()
			return // connection drops: no done event
		}
		row := experiments.SweepRow{App: c.App, Scheme: c.Scheme, Mix: c.Mix != "", Cycles: f.fp}
		if c.Mix != "" {
			row.App = c.Mix
		}
		data, _ := json.Marshal(row)
		fmt.Fprintf(w, "id: %d\nevent: row\ndata: %s\n\n", i+1, data)
		fl.Flush()
	}
	st := map[string]any{"state": "done", "served": 0, "computed": len(cells)}
	data, _ := json.Marshal(st)
	fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
	fl.Flush()
}

// collectDelivery runs a Pool over the cells and returns which worker
// fingerprint delivered each cell index.
func collectDelivery(t *testing.T, p *Pool, cells []experiments.CellRef) map[int]uint64 {
	t.Helper()
	got, err := collectDeliveryErr(t, p, cells, nil)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	return got
}

func collectDeliveryErr(t *testing.T, p *Pool, cells []experiments.CellRef, onRow func(experiments.CellRef, experiments.SweepRow)) (map[int]uint64, error) {
	t.Helper()
	got := map[int]uint64{}
	var mu sync.Mutex
	err := p.Exec(JobParams{Scale: 0.05})(context.Background(), cells,
		func(ref experiments.CellRef, row experiments.SweepRow) {
			mu.Lock()
			if _, dup := got[ref.Index]; dup {
				t.Errorf("cell %d delivered twice", ref.Index)
			}
			got[ref.Index] = row.Cycles
			mu.Unlock()
			if onRow != nil {
				onRow(ref, row)
			}
		})
	return got, err
}

// staticPool builds a Pool over a fixed worker list the way whirld's
// -workers flag does: each URL a static registry member.
func staticPool(t *testing.T, urls []string, opt Options) *Pool {
	t.Helper()
	reg := fleet.NewRegistry(fleet.RegistryOptions{})
	for _, u := range urls {
		if err := reg.AddStatic(u, 0); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPool(reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Two healthy workers split the grid and deliver every cell exactly
// once; with the same membership, a second job routes identically —
// the determinism the distributed bit-identity smoke rests on.
func TestPoolDispatchesAllCells(t *testing.T) {
	_, ts1 := newFakeWorker(t, 111, -1)
	_, ts2 := newFakeWorker(t, 222, -1)
	cells := refs(20)
	urls := []string{ts1.URL, ts2.URL}
	p1 := staticPool(t, urls, Options{})
	got1 := collectDelivery(t, p1, cells)
	if len(got1) != len(cells) {
		t.Fatalf("delivered %d of %d cells", len(got1), len(cells))
	}
	split := map[uint64]int{}
	for _, fp := range got1 {
		split[fp]++
	}
	if split[111] == 0 || split[222] == 0 {
		t.Fatalf("one worker got the whole grid: %v", split)
	}
	for _, ws := range p1.Stats() {
		if ws.Dead || ws.Computed == 0 {
			t.Errorf("healthy fleet stats: %+v", ws)
		}
	}
	// A fresh pool over the same worker list routes every cell to the
	// same worker (member IDs follow registration order, so the
	// assignment is a pure function of the membership and the keys).
	p2 := staticPool(t, urls, Options{})
	got2 := collectDelivery(t, p2, cells)
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("cell %d routed to %d then %d with identical membership", i, got1[i], got2[i])
		}
	}
}

// A worker that dies mid-shard is marked dead and its undelivered cells
// re-dispatch to the survivor; nothing is delivered twice, nothing is
// lost.
func TestPoolRedispatchOnWorkerDeath(t *testing.T) {
	_, healthy := newFakeWorker(t, 111, -1)
	dying, dyingTS := newFakeWorker(t, 666, 2) // delivers 2 rows, then drops
	cells := refs(24)
	p := staticPool(t, []string{healthy.URL, dyingTS.URL}, Options{Quota: bigQuota})
	var capture logCapture
	p.log = obs.NewLogger(&capture, "dispatch")
	got := collectDelivery(t, p, cells)
	logged := capture.all()
	if len(got) != len(cells) {
		t.Fatalf("delivered %d of %d cells after worker death", len(got), len(cells))
	}
	survived, died := 0, 0
	for _, fp := range got {
		switch fp {
		case 111:
			survived++
		case 666:
			died++
		}
	}
	if died != 2 || survived != len(cells)-2 {
		t.Fatalf("delivery split = %d from dying + %d from survivor, want 2 + %d", died, survived, len(cells)-2)
	}
	var deadStats, aliveStats *experiments.WorkerStats
	stats := p.Stats()
	for i := range stats {
		if stats[i].Worker == dyingTS.URL {
			deadStats = &stats[i]
		} else {
			aliveStats = &stats[i]
		}
	}
	dyingShard := dying.submitted // its one and only shard
	if dyingShard < 3 {
		t.Fatalf("test needs the dying worker to get >2 cells, got %d", dyingShard)
	}
	if deadStats == nil || !deadStats.Dead || deadStats.Redispatched != dyingShard-2 {
		t.Errorf("dead worker stats = %+v, want Dead with %d redispatched", deadStats, dyingShard-2)
	}
	if aliveStats == nil || aliveStats.Dead || aliveStats.Computed == 0 {
		t.Errorf("survivor stats = %+v", aliveStats)
	}
	// The rows the dying worker demonstrably delivered before dropping
	// its stream are still attributed to it.
	if deadStats.Computed != 2 {
		t.Errorf("dead worker computed = %d, want 2 (best-effort attribution)", deadStats.Computed)
	}
	if len(logged) == 0 || !strings.Contains(logged[0], "undelivered") {
		t.Errorf("no worker-failure log line: %v", logged)
	}
	if dying.canceled == 0 {
		t.Errorf("dead worker's orphan job was never canceled")
	}
}

// When every worker dies the executor fails, reporting how much was
// left undelivered — the sweep layer then turns that into error rows.
func TestPoolAllWorkersDead(t *testing.T) {
	_, ts1 := newFakeWorker(t, 1, 0)
	_, ts2 := newFakeWorker(t, 2, 0)
	p := staticPool(t, []string{ts1.URL, ts2.URL}, Options{Quota: bigQuota})
	execErr := p.Exec(JobParams{})(context.Background(), refs(6),
		func(experiments.CellRef, experiments.SweepRow) {})
	if execErr == nil || !strings.Contains(execErr.Error(), "all 2 workers failed") {
		t.Fatalf("err = %v", execErr)
	}
	for _, ws := range p.Stats() {
		if !ws.Dead {
			t.Errorf("worker %s not marked dead", ws.Worker)
		}
		// Nothing was moved to a survivor (there were none), so nothing
		// counts as redispatched — the cells became error rows instead.
		if ws.Redispatched != 0 {
			t.Errorf("redispatched counted with no survivors to take the cells: %+v", ws)
		}
	}
}

// A worker that registers with the fleet mid-job starts receiving
// cells in the very next round: per-round quotas leave pending cells
// for it to claim, so a sweep started on one worker finishes on two.
func TestPoolMidJobJoin(t *testing.T) {
	_, ts1 := newFakeWorker(t, 111, -1)
	_, ts2 := newFakeWorker(t, 222, -1)
	reg := fleet.NewRegistry(fleet.RegistryOptions{})
	if _, _, err := reg.Register(ts1.URL, 1); err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cells := refs(8)
	var joinOnce sync.Once
	got, execErr := collectDeliveryErr(t, p, cells, func(experiments.CellRef, experiments.SweepRow) {
		joinOnce.Do(func() {
			if _, _, err := reg.Register(ts2.URL, 1); err != nil {
				t.Error(err)
			}
		})
	})
	if execErr != nil {
		t.Fatalf("Exec: %v", execErr)
	}
	if len(got) != len(cells) {
		t.Fatalf("delivered %d of %d", len(got), len(cells))
	}
	joined := 0
	for _, fp := range got {
		if fp == 222 {
			joined++
		}
	}
	// Capacity 1 each → round size ≤ 2 once both are in; with 8 cells
	// and the join after the first delivery, the joiner is guaranteed
	// work (pending exceeds the fleet's per-round appetite until the
	// final rounds).
	if joined == 0 {
		t.Fatal("mid-job joiner received no cells")
	}
	if p.Rebalances() == 0 {
		t.Fatal("membership change mid-job not counted as a rebalance")
	}
}

// A worker whose lease expires mid-shard gets its shard canceled by
// the watcher and the undelivered cells re-dispatch — without waiting
// for a TCP failure, because the worker may still be reachable.
func TestPoolLeaseLossMidShard(t *testing.T) {
	// stall streams one row then parks until the connection dies.
	var stallJobs sync.Map
	var seq int
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		var req CellsRequest
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		seq++
		id := fmt.Sprintf("j%d", seq)
		mu.Unlock()
		stallJobs.Store(id, req.Cells)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": id})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		v, _ := stallJobs.Load(r.PathValue("id"))
		cells := v.([]experiments.SweepCell)
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		if len(cells) > 0 {
			c := cells[0]
			data, _ := json.Marshal(experiments.SweepRow{App: c.App, Scheme: c.Scheme, Cycles: 666})
			fmt.Fprintf(w, "event: row\ndata: %s\n\n", data)
		}
		fl.Flush()
		<-r.Context().Done()
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	stall := httptest.NewServer(mux)
	t.Cleanup(stall.Close)
	_, healthy := newFakeWorker(t, 111, -1)

	reg := fleet.NewRegistry(fleet.RegistryOptions{})
	stallM, _, err := reg.Register(stall.URL, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Register(healthy.URL, 2); err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(reg, Options{WatchInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cells := refs(8)
	var dropOnce sync.Once
	got, execErr := collectDeliveryErr(t, p, cells, func(_ experiments.CellRef, row experiments.SweepRow) {
		if row.Cycles == 666 {
			// The stalled worker's lease dies out from under its shard.
			dropOnce.Do(func() {
				if err := reg.Deregister(stallM.ID); err != nil {
					t.Error(err)
				}
			})
		}
	})
	if execErr != nil {
		t.Fatalf("Exec: %v", execErr)
	}
	if len(got) != len(cells) {
		t.Fatalf("delivered %d of %d after lease loss", len(got), len(cells))
	}
	fromStalled := 0
	for _, fp := range got {
		if fp == 666 {
			fromStalled++
		}
	}
	if fromStalled != 1 {
		t.Fatalf("stalled worker delivered %d rows, want exactly its pre-expiry 1", fromStalled)
	}
	var stallStats *experiments.WorkerStats
	stats := p.Stats()
	for i := range stats {
		if stats[i].Worker == stall.URL {
			stallStats = &stats[i]
		}
	}
	if stallStats == nil || !stallStats.Dead || stallStats.Redispatched == 0 {
		t.Fatalf("lease-lost worker stats = %+v, want dead with redispatched cells", stallStats)
	}
}

// Rows the worker reports as canceled (it is shutting down) are never
// delivered; the shard fails over instead.
func TestPoolCanceledRowsRedispatch(t *testing.T) {
	// A worker whose rows all come back canceled, then a canceled done.
	mux := http.NewServeMux()
	var jobs sync.Map
	var mu sync.Mutex
	seq := 0
	mux.HandleFunc("POST /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		var req CellsRequest
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		seq++
		id := fmt.Sprintf("j%d", seq)
		mu.Unlock()
		jobs.Store(id, req.Cells)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": id})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		v, _ := jobs.Load(r.PathValue("id"))
		cells := v.([]experiments.SweepCell)
		w.Header().Set("Content-Type", "text/event-stream")
		for _, c := range cells {
			data, _ := json.Marshal(experiments.SweepRow{App: c.App, Scheme: c.Scheme, Err: "canceled"})
			fmt.Fprintf(w, "event: row\ndata: %s\n\n", data)
		}
		data, _ := json.Marshal(map[string]any{"state": "canceled"})
		fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	shuttingDown := httptest.NewServer(mux)
	t.Cleanup(shuttingDown.Close)
	_, healthy := newFakeWorker(t, 111, -1)

	cells := refs(12)
	p := staticPool(t, []string{shuttingDown.URL, healthy.URL}, Options{})
	got := collectDelivery(t, p, cells)
	if len(got) != len(cells) {
		t.Fatalf("delivered %d of %d", len(got), len(cells))
	}
	for i, fp := range got {
		if fp != 111 {
			t.Errorf("cell %d delivered by the shutting-down worker (fp %d)", i, fp)
		}
	}
}

// A canceled coordinator context stops dispatch promptly and cancels
// the in-flight worker jobs.
func TestPoolContextCancel(t *testing.T) {
	// A worker that streams one row then stalls forever.
	var stallCanceled sync.WaitGroup
	stallCanceled.Add(1)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": "j1"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	var delOnce sync.Once
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		delOnce.Do(stallCanceled.Done)
		w.WriteHeader(200)
	})
	stall := httptest.NewServer(mux)
	t.Cleanup(stall.Close)

	p := staticPool(t, []string{stall.URL}, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	execErr := p.Exec(JobParams{})(ctx, refs(3), func(experiments.CellRef, experiments.SweepRow) {})
	if execErr == nil {
		t.Fatal("canceled dispatch returned nil")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancel took %v", time.Since(start))
	}
	stallCanceled.Wait() // the orphan worker job got its DELETE
}

// A 400 on shard submit is deterministic — every worker would reject
// the same cells — so the shard fails as explicit error rows without
// killing the worker or cascading across the fleet.
func TestPoolShardRejectionDoesNotKillFleet(t *testing.T) {
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]any{
			"error": map[string]string{"code": "bad_request", "message": `unknown app "ghost"`},
		})
	}))
	t.Cleanup(rejecting.Close)
	_, healthy := newFakeWorker(t, 111, -1)

	cells := refs(16)
	p := staticPool(t, []string{rejecting.URL, healthy.URL}, Options{})
	got := map[int]experiments.SweepRow{}
	var mu sync.Mutex
	execErr := p.Exec(JobParams{})(context.Background(), cells,
		func(ref experiments.CellRef, row experiments.SweepRow) {
			mu.Lock()
			got[ref.Index] = row
			mu.Unlock()
		})
	if execErr != nil {
		t.Fatalf("rejection cascaded into job failure: %v", execErr)
	}
	if len(got) != len(cells) {
		t.Fatalf("delivered %d of %d cells", len(got), len(cells))
	}
	var errRows, cleanRows int
	for _, row := range got {
		if row.Err != "" {
			if !strings.Contains(row.Err, "unknown app") {
				t.Fatalf("rejection row lost the worker's message: %+v", row)
			}
			errRows++
		} else {
			cleanRows++
		}
	}
	if errRows == 0 || cleanRows == 0 {
		t.Fatalf("split = %d rejected + %d computed; want both nonzero", errRows, cleanRows)
	}
	for _, ws := range p.Stats() {
		if ws.Dead {
			t.Errorf("worker %s marked dead by a 400 rejection", ws.Worker)
		}
		if ws.Redispatched != 0 {
			t.Errorf("rejected cells were re-dispatched: %+v", ws)
		}
	}
}

// A worker whose recomputed key disagrees with the coordinator's is
// reporting a simulation of different inputs; its rows become error
// rows instead of poisoning the store under the wrong key.
func TestPoolKeyMismatchRejected(t *testing.T) {
	mux := http.NewServeMux()
	var jobs sync.Map
	var mu sync.Mutex
	seq := 0
	mux.HandleFunc("POST /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		var req CellsRequest
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		seq++
		id := fmt.Sprintf("j%d", seq)
		mu.Unlock()
		jobs.Store(id, req.Cells)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": id})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		v, _ := jobs.Load(r.PathValue("id"))
		cells := v.([]experiments.SweepCell)
		w.Header().Set("Content-Type", "text/event-stream")
		for _, c := range cells {
			row := experiments.SweepRow{App: c.App, Scheme: c.Scheme, Cycles: 7,
				Key: strings.Repeat("f", 64)} // never the coordinator's key
			data, _ := json.Marshal(row)
			fmt.Fprintf(w, "event: row\ndata: %s\n\n", data)
		}
		data, _ := json.Marshal(map[string]any{"state": "done", "computed": len(cells)})
		fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	stale := httptest.NewServer(mux)
	t.Cleanup(stale.Close)

	cells := refs(4)
	p := staticPool(t, []string{stale.URL}, Options{})
	got := map[int]experiments.SweepRow{}
	var mu2 sync.Mutex
	execErr := p.Exec(JobParams{})(context.Background(), cells,
		func(ref experiments.CellRef, row experiments.SweepRow) {
			mu2.Lock()
			got[ref.Index] = row
			mu2.Unlock()
		})
	if execErr != nil {
		t.Fatalf("Exec: %v", execErr)
	}
	if len(got) != len(cells) {
		t.Fatalf("delivered %d of %d", len(got), len(cells))
	}
	for i, row := range got {
		if !strings.Contains(row.Err, "key mismatch") {
			t.Fatalf("cell %d accepted despite key mismatch: %+v", i, row)
		}
		if row.Cycles != 0 {
			t.Fatalf("cell %d kept the mismatched numbers: %+v", i, row)
		}
	}
}

// A 503 on shard submit is back-pressure, not death: the pool retries
// with (jittered) backoff and the worker keeps its shard.
func TestPoolRetriesSubmit503(t *testing.T) {
	inner, _ := newFakeWorker(t, 111, -1)
	var rejects int
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		rejects++
		reject := rejects <= 2
		mu.Unlock()
		if reject {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{
				"error": map[string]string{"code": "queue_full", "message": "job queue is full"},
			})
			return
		}
		inner.handleCells(w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", inner.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	cells := refs(4)
	p := staticPool(t, []string{ts.URL}, Options{})
	got := collectDelivery(t, p, cells)
	if len(got) != len(cells) {
		t.Fatalf("delivered %d of %d after transient 503s", len(got), len(cells))
	}
	if rejects != 3 { // 2 rejections + the accepted attempt
		t.Fatalf("submit attempts = %d, want 3", rejects)
	}
	for _, ws := range p.Stats() {
		if ws.Dead {
			t.Fatalf("worker marked dead by transient 503s: %+v", ws)
		}
	}
}

// NewPool rejects a nil membership; a pool over a static registry sees
// the registry's deduplicated members.
func TestPoolNew(t *testing.T) {
	if _, err := NewPool(nil, Options{}); err == nil {
		t.Fatal("NewPool accepted a nil membership")
	}
	p := staticPool(t, []string{"http://a", "http://a/", "http://b"}, Options{})
	if n := len(p.membership.Snapshot().Members); n != 2 {
		t.Fatalf("dedup left %d workers, want 2", n)
	}
}

// TestDispatchShardSpansOnFailover: with a Tracer wired in, every shard
// of one dispatch — including the re-dispatch after a mid-shard worker
// death — lands in the caller's single trace, the moved cells carry
// redispatched=true markers, and the worker submits all received the
// trace via W3C traceparent.
func TestDispatchShardSpansOnFailover(t *testing.T) {
	healthy, healthyTS := newFakeWorker(t, 111, -1)
	dying, dyingTS := newFakeWorker(t, 666, 2) // 2 rows, then kill -9
	cells := refs(24)
	tracer := obs.New(0)
	p := staticPool(t, []string{healthyTS.URL, dyingTS.URL}, Options{Quota: bigQuota, Tracer: tracer})

	root := tracer.Start(obs.SpanContext{}, "job")
	rootSC := root.Context()
	ctx := obs.NewContext(context.Background(), rootSC)
	var delivered atomic.Int64 // deliver runs on each shard's goroutine
	if err := p.Exec(JobParams{Scale: 0.05})(ctx, cells, func(experiments.CellRef, experiments.SweepRow) {
		delivered.Add(1)
	}); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	root.End()
	if n := delivered.Load(); n != int64(len(cells)) {
		t.Fatalf("delivered %d of %d cells", n, len(cells))
	}

	spans := tracer.Collect(rootSC.Trace)
	var shards, redispShards, redispCells int
	for _, sp := range spans {
		switch sp.Name {
		case "dispatch.shard":
			shards++
			if v, ok := sp.Attr("redispatched"); ok {
				if b, _ := v.IsBool(); b {
					redispShards++
				}
			}
			if _, ok := sp.Attr("worker"); !ok {
				t.Errorf("shard span without worker attr: %+v", sp)
			}
		case "dispatch.redispatch":
			redispCells++
			b, ok := sp.Attr("redispatched")
			if bv, _ := b.IsBool(); !ok || !bv {
				t.Errorf("redispatch marker span without redispatched=true: %+v", sp)
			}
			if sp.Parent.IsZero() {
				t.Error("redispatch marker span has no parent shard")
			}
		}
	}
	// Round 1: one shard per worker. Round 2: the dead worker's leftover
	// cells on the survivor. All in the one trace.
	if shards != 3 {
		t.Errorf("dispatch.shard spans = %d, want 3 (2 first-round + 1 failover)", shards)
	}
	if redispShards != 1 {
		t.Errorf("shards marked redispatched = %d, want 1", redispShards)
	}
	wantMoved := dying.submitted - 2 // the dying worker delivered 2 rows
	if redispCells != wantMoved {
		t.Errorf("redispatch marker spans = %d, want %d", redispCells, wantMoved)
	}

	// Every shard submit carried the trace to its worker.
	for _, f := range []*fakeWorker{healthy, dying} {
		f.mu.Lock()
		tps := append([]string(nil), f.traceparents...)
		f.mu.Unlock()
		for _, tp := range tps {
			sc, ok := obs.ParseTraceparent(tp)
			if !ok || sc.Trace != rootSC.Trace {
				t.Errorf("shard submit traceparent = %q, want trace %s", tp, rootSC.Trace)
			}
		}
	}
}
