package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"whirlpool/internal/apiclient"
	"whirlpool/internal/experiments"
	"whirlpool/internal/results"
	"whirlpool/internal/schemes"
	"whirlpool/internal/server"
	"whirlpool/internal/stats"
)

// The serve workload's traffic is the "warm-mixed" spec of
// docs/server.md: readers GET one app's first 50 stored rows (Poisson,
// readRPS), pollers list the jobs (bursts of pollBurst, pollRPS on
// average), and resubmits send one warm cell and wait for it to finish
// (evenly spaced, resubmitRPS).
const (
	readApp        = "delaunay"
	readLimit      = 50
	pollBurst      = 5
	resubmitApp    = "mcf"
	resubmitScheme = schemes.KindWhirlpool
)

const (
	// lateLimitMS fails the run when the open-loop generator's median
	// lateness exceeds it: a generator that cannot keep its schedule is
	// late on most sends. Its p99 lateness is only noted when it exceeds
	// the limit, because on a shared host the host makes the tail late,
	// not the generator (README.md, "Timing the open loop").
	lateLimitMS = 5
	// maxInflight bounds the generator's outstanding requests. A request
	// due while this many are outstanding is dropped and counted as
	// failed, so a stalled server cannot grow the generator unboundedly.
	maxInflight = 256
	// readSlice and resubmitSlice are the closed loop's alternating
	// slices: reads back to back, then resubmits back to back.
	readSlice     = 1500 * time.Millisecond
	resubmitSlice = time.Second
	// capacityWindow is the closed reads' sampling window; their
	// capacity is the median window's completion rate.
	capacityWindow = 250 * time.Millisecond
	// appendRawCalls is how often the traced run times the readers'
	// query against the store directly.
	appendRawCalls = 2000
	// rssWindow is the window max_rss_mb takes peaks over; it reports
	// their median.
	rssWindow = time.Second
)

// serveState is the serve workload after set-up: whirld's handler on
// loopback over a result store that holds the grid's real rows plus
// filler records.
type serveState struct {
	e       *env
	g       grid
	store   *results.Store
	srv     *server.Server
	hs      *http.Server
	serving chan error
	base    string
	rows    []experiments.SweepRow // the grid as set-up computed it
}

func setupServe(e *env, dir string) (*serveState, error) {
	g := grid{apps: e.size.serveApps, kinds: schemes.PaperKinds(), scale: e.size.serveScale}
	st, err := results.Open(dir)
	if err != nil {
		return nil, err
	}
	rows, err := newHarness(g.scale, e.seed).Sweep(g.config(g.kinds, st))
	cerr := st.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	for _, r := range rows {
		if r.Err != "" {
			return nil, fmt.Errorf("%s/%s: %s", r.App, r.Scheme, r.Err)
		}
	}
	if err := fillStore(dir, e.size.storeRecords-len(rows), rows, e.seed); err != nil {
		return nil, err
	}
	if st, err = results.Open(dir); err != nil {
		return nil, err
	}
	s := &serveState{e: e, g: g, store: st, rows: rows}
	if n := st.Len(); n != e.size.storeRecords {
		_ = st.Close()
		return nil, fmt.Errorf("the store holds %d records, want %d", n, e.size.storeRecords)
	}
	if n := len(st.AppendRaw(readQuery, nil)); n != readLimit {
		_ = st.Close()
		return nil, fmt.Errorf("the store holds %d %s records, want at least %d", n, readApp, readLimit)
	}
	if s.srv, err = server.New(server.Config{Store: st, Workers: workers}); err != nil {
		_ = st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		_ = st.Close()
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.serving = make(chan error, 1)
	go func() { s.serving <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	return s, nil
}

// close stops the HTTP server, then the daemon's job runners, then the
// store, waiting for each.
func (s *serveState) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.serving; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// The three request classes.
type opClass int

const (
	opRead opClass = iota
	opPoll
	opResubmit
)

// loadOp is one scheduled open-loop request.
type loadOp struct {
	due   time.Duration
	class opClass
}

// outcome is what one request observed; latency runs from its due time.
// It keeps no response body, so the run's memory stays the server's.
type outcome struct {
	sent    bool
	latency time.Duration
	bodyLen int // reads
	rows    []experiments.SweepRow
	status  jobStatus // resubmits: the SSE done event
	err     error
}

// jobStatus is the part of a job's status the benchmark checks.
type jobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Served     int    `json:"served"`
	Computed   int    `json:"computed"`
	CellErrors int    `json:"cell_errors"`
}

// openLoopRun is what the open-loop phase observed.
type openLoopRun struct {
	ops     []loadOp
	out     []outcome
	lateMS  []float64
	dropped int
}

// poisson draws a Poisson process of the given rate over span.
func poisson(rng *stats.Rng, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		if t >= span.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// spaced returns evenly spaced arrivals, the first half a gap in, or
// groups of burst arrivals that share one due time with the same
// long-run rate.
func spaced(rate float64, burst int, span time.Duration) []time.Duration {
	gap := time.Duration(float64(burst) * float64(time.Second) / rate)
	var out []time.Duration
	for t := gap / 2; t < span; t += gap {
		for range burst {
			out = append(out, t)
		}
	}
	return out
}

// schedule merges the three classes' arrivals in due order. Only the
// readers' arrivals are random, drawn from the seed.
func (s *serveState) schedule(span time.Duration) []loadOp {
	rng := stats.NewRng(s.e.seed ^ 0x6c6f6164) // "load": the schedule draws apart from other inputs
	var ops []loadOp
	add := func(class opClass, dues []time.Duration) {
		for _, d := range dues {
			ops = append(ops, loadOp{due: d, class: class})
		}
	}
	add(opRead, poisson(rng, s.e.size.readRPS, span))
	add(opPoll, spaced(s.e.size.pollRPS, pollBurst, span))
	add(opResubmit, spaced(s.e.size.resubmitRPS, 1, span))
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

var (
	readQuery = results.Query{App: readApp, Limit: readLimit}
	readPath  = "/v1/results?" + url.Values{"app": {readApp}, "limit": {strconv.Itoa(readLimit)}}.Encode()
)

func (s *serveState) resubmitRequest() server.SweepRequest {
	return server.SweepRequest{
		Apps: []string{resubmitApp}, Schemes: []string{resubmitScheme.ID()},
		Scale: s.g.scale, Seed: s.e.seed,
	}
}

// read issues one readers' GET; its latency runs from due, the time it
// was scheduled to be sent.
func read(ctx context.Context, c *apiclient.Client, due time.Time) outcome {
	body, err := c.GetRaw(ctx, readPath)
	return outcome{sent: true, latency: time.Since(due), bodyLen: len(body), err: err}
}

// poll lists the jobs and checks the list; its latency runs from due.
func poll(ctx context.Context, c *apiclient.Client, due time.Time) outcome {
	body, err := c.GetRaw(ctx, "/v1/jobs")
	o := outcome{sent: true, latency: time.Since(due), err: err}
	if o.err == nil {
		o.err = checkJobs(body)
	}
	return o
}

// checkJobs checks that every job a job list holds is a resubmit that
// is answered from the store: it computed no cell and failed none.
func checkJobs(body []byte) error {
	var list struct {
		Jobs []jobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return err
	}
	for _, j := range list.Jobs {
		switch {
		case j.State != "queued" && j.State != "running" && j.State != "done":
			return fmt.Errorf("job %s is %s", j.ID, j.State)
		case j.Computed != 0 || j.CellErrors != 0:
			return fmt.Errorf("job %s computed %d cells with %d errors", j.ID, j.Computed, j.CellErrors)
		}
	}
	return nil
}

// resubmit sends the warm cell and follows the job's SSE stream to its
// done event; its latency runs from due.
func (s *serveState) resubmit(ctx context.Context, c *apiclient.Client, due time.Time) outcome {
	o := outcome{sent: true}
	var sub struct {
		Stream string `json:"stream"`
	}
	if o.err = c.PostJSON(ctx, "/v1/sweeps", s.resubmitRequest(), &sub); o.err != nil {
		return o
	}
	stream, err := c.Stream(ctx, sub.Stream)
	if err != nil {
		o.err = err
		return o
	}
	defer stream.Close()
	for {
		ev, err := stream.Next()
		if err != nil {
			o.err = fmt.Errorf("stream ended before its done event: %w", err)
			return o
		}
		switch ev.Name {
		case "row":
			var row experiments.SweepRow
			if o.err = json.Unmarshal(ev.Data, &row); o.err != nil {
				return o
			}
			o.rows = append(o.rows, row)
		case "done":
			o.err = json.Unmarshal(ev.Data, &o.status)
			o.latency = time.Since(due)
			return o
		}
	}
}

// openLoop sends every class on its schedule, whether or not earlier
// requests have finished, for span.
//
// It is a stop-gap beside internal/traffic, which times a request from
// when a worker picks it up rather than from when it was due; once that
// runner times from the due time, the benchmark should drive it instead.
func (s *serveState) openLoop(ctx context.Context, c *apiclient.Client, span time.Duration) *openLoopRun {
	run := &openLoopRun{ops: s.schedule(span)}
	run.out = make([]outcome, len(run.ops))
	run.lateMS = make([]float64, 0, len(run.ops))
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	// Go's timers wake up to a millisecond late on an idle runtime,
	// which would swamp a sub-millisecond read, so the generator sleeps
	// in the kernel on a thread of its own.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for i, op := range run.ops {
		due := start.Add(op.due)
		for d := time.Until(due); d > 0; d = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // a signal ends it early; the loop sleeps again
		}
		run.lateMS = append(run.lateMS, float64(time.Since(due))/1e6)
		select {
		case sem <- struct{}{}:
		default:
			run.dropped++
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			switch op.class {
			case opRead:
				run.out[i] = read(ctx, c, due)
			case opPoll:
				run.out[i] = poll(ctx, c, due)
			case opResubmit:
				run.out[i] = s.resubmit(ctx, c, due)
			}
		}()
	}
	wg.Wait()
	return run
}

// class returns the sent requests of one class.
func (r *openLoopRun) class(c opClass) []outcome {
	var out []outcome
	for i, o := range r.out {
		if o.sent && r.ops[i].class == c {
			out = append(out, o)
		}
	}
	return out
}

// closedRun is what the closed loop observed.
type closedRun struct {
	reads, resubmits []outcome
	// windows are the reads completed in each capacityWindow.
	windows []float64
	// probe holds the host probe's runs before the first pair of slices
	// and after each.
	probe []float64
}

// closedLoop alternates two closed loops for span, a slice of each in
// turn, so that both see the same host: reads back to back on `workers`
// connections, then warm resubmits back to back on one.
func (s *serveState) closedLoop(ctx context.Context, c *apiclient.Client, span time.Duration) *closedRun {
	run := &closedRun{probe: s.e.probe.sample()}
	end := time.Now().Add(span)
	for time.Now().Before(end) {
		reads, windows := closedReads(ctx, c, min(readSlice, time.Until(end)))
		run.reads = append(run.reads, reads...)
		run.windows = append(run.windows, windows...)
		// A slice makes at least one resubmit, so that a toy run has one.
		deadline := time.Now().Add(min(resubmitSlice, time.Until(end)))
		for {
			run.resubmits = append(run.resubmits, s.resubmit(ctx, c, time.Now()))
			if !time.Now().Before(deadline) {
				break
			}
		}
		run.probe = append(run.probe, s.e.probe.sample()...)
	}
	return run
}

// closedReads reads back to back on `workers` connections for span and
// returns the reads and how many completed in each whole window.
func closedReads(ctx context.Context, c *apiclient.Client, span time.Duration) ([]outcome, []float64) {
	start := time.Now()
	deadline := start.Add(span)
	reads := make([][]outcome, workers)
	ends := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				reads[w] = append(reads[w], read(ctx, c, time.Now()))
				ends[w] = append(ends[w], time.Since(start))
			}
		}()
	}
	wg.Wait()
	windows := make([]float64, int(span/capacityWindow))
	var all []outcome
	for w := range workers {
		all = append(all, reads[w]...)
		for _, end := range ends[w] {
			if i := int(end / capacityWindow); i < len(windows) {
				windows[i]++
			}
		}
	}
	return all, windows
}

// resultsBodyLen is the length of the /v1/results body serving raws.
func resultsBodyLen(raws [][]byte) int {
	n := len("[") + len("]\n")
	for i, r := range raws {
		if i > 0 {
			n += len(",\n")
		}
		n += len(r)
	}
	return n
}

// verifyReads checks every read against the length of the store's own
// answer to the same query.
func (s *serveState) verifyReads(res *result, reads []outcome) []float64 {
	want := resultsBodyLen(s.store.AppendRaw(readQuery, nil))
	var ms []float64
	for _, r := range reads {
		switch {
		case r.err != nil:
			res.fail(1, "GET %s: %v", readPath, r.err)
		case r.bodyLen != want:
			res.fail(1, "GET %s returned %d bytes; the store answers with %d", readPath, r.bodyLen, want)
		default:
			ms = append(ms, float64(r.latency)/1e6)
		}
	}
	return ms
}

// verifyPolls counts the polls that failed.
func verifyPolls(res *result, polls []outcome) []float64 {
	var ms []float64
	for _, p := range polls {
		if p.err != nil {
			res.fail(1, "GET /v1/jobs: %v", p.err)
			continue
		}
		ms = append(ms, float64(p.latency)/1e6)
	}
	return ms
}

// verifyResubmits checks that every resubmit was served from the store,
// with the row set-up computed.
func (s *serveState) verifyResubmits(res *result, resubs []outcome) []float64 {
	var want experiments.SweepRow
	for _, r := range s.rows {
		if r.App == resubmitApp && r.Scheme == resubmitScheme.ID() {
			want = simColumns(r)
		}
	}
	var ms []float64
	for _, r := range resubs {
		switch {
		case r.err != nil:
			res.fail(1, "resubmit: %v", r.err)
		case r.status.State != "done" || r.status.Computed != 0 || r.status.Served != 1 || len(r.rows) != 1:
			res.fail(1, "resubmit: %+v with %d rows, want one served and none computed", r.status, len(r.rows))
		case simColumns(r.rows[0]) != want:
			res.fail(1, "resubmit: %s/%s differs from the stored row", r.rows[0].App, r.rows[0].Scheme)
		default:
			ms = append(ms, float64(r.latency)/1e6)
		}
	}
	return ms
}

func runServe(e *env) (*result, error) {
	var setups []float64
	var s *serveState
	setupProbe := e.probe.sample()
	for i := range e.setupReps() {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		freshHeap()
		t0 := time.Now()
		st, err := setupServe(e, filepath.Join(e.dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		s = st
		setupProbe = append(setupProbe, e.probe.sample()...)
	}
	res, err := s.measure(setups, hostScale(setupProbe))
	if cerr := s.close(); err == nil && cerr != nil {
		err = fmt.Errorf("shutting down: %w", cerr)
	}
	return res, err
}

// measure sends the load and reports the metrics. setupScale scales the
// set-up times; the probe runs between the closed loop's slices scale
// its latencies, the end-to-end metrics.
func (s *serveState) measure(setups []float64, setupScale float64) (*result, error) {
	e := s.e
	res := newResult()
	if err := e.checkGolden("serve", s.rows, res); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(e.seconds*float64(time.Second))+time.Minute)
	defer cancel()
	tr := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}
	defer tr.CloseIdleConnections()
	c, err := apiclient.New(s.base, &http.Client{Transport: tr})
	if err != nil {
		return nil, err
	}

	freshHeap()
	rssw, err := startRSSWindows(rssWindow)
	if err != nil {
		return nil, err
	}
	rt := startRuntimeProbe()
	span := time.Duration(e.seconds * float64(time.Second))
	open := s.openLoop(ctx, c, span/2)
	// max_rss_mb covers the open loop only. Through the back-to-back
	// closed loop the resident set climbed by 15-55 MB: at that
	// allocation rate the collector lets the heap run further ahead, and
	// the benchmark's own record of every request grows. Its windows
	// would measure those, not what the server holds under its traffic.
	rss, err := rssw.stop()
	if err != nil {
		return nil, err
	}
	closed := s.closedLoop(ctx, c, span-span/2)
	rt.stop()

	res.Attempted = len(open.ops) + len(closed.reads) + len(closed.resubmits)
	if open.dropped > 0 {
		res.fail(open.dropped, "the generator dropped %d requests with %d outstanding", open.dropped, maxInflight)
	}
	readMS := s.verifyReads(res, open.class(opRead))
	closedMS := s.verifyReads(res, closed.reads)
	pollMS := verifyPolls(res, open.class(opPoll))
	s.verifyResubmits(res, open.class(opResubmit))
	resubMS := s.verifyResubmits(res, closed.resubmits)
	if late := median(open.lateMS); late > lateLimitMS {
		res.problem("the generator ran late: median %.2f ms > %d ms", late, lateLimitMS)
	}
	if late := percentile(open.lateMS, 99); late > lateLimitMS {
		res.notes = append(res.notes, fmt.Sprintf("the generator's tail ran late: p99 %.2f ms over %d sends", late, len(open.lateMS)))
	}

	scale := hostScale(closed.probe)
	res.notes = append(res.notes, fmt.Sprintf("host scale %.4g (set-up %.4g); unscaled: setup %.4g s, resubmit p50 %.4g ms, read p50 %.4g ms",
		scale, setupScale, median(setups), median(resubMS), median(closedMS)))
	if !e.trace {
		defs := endToEnd
		res.set(defs, "setup_s", setupScale*median(setups), len(setups))
		res.set(defs, "sweep_s", scale*median(resubMS)/1e3, len(resubMS))
		res.set(defs, "op_p50_ms", scale*median(closedMS), len(closedMS))
		res.set(defs, "max_rss_mb", median(rss), len(rss))
		return res, nil
	}

	defs := perLayer()
	res.set(defs, "host.scale", scale, len(closed.probe))
	rt.report(res)
	if err := setPaperRatios(res, s.rows); err != nil {
		return nil, err
	}
	res.setPercentile(defs, "loadgen.late_p99_ms", open.lateMS, 99)
	res.set(defs, "loadgen.sent", float64(len(open.ops)-open.dropped), 0)
	res.set(defs, "loadgen.dropped", float64(open.dropped), 0)
	res.setPercentile(defs, "loadgen.results_p99_ms", readMS, 99)
	res.setPercentile(defs, "loadgen.jobs_p95_ms", pollMS, 95)
	res.set(defs, "loadgen.capacity_rps", median(closed.windows)/capacityWindow.Seconds(), len(closed.windows))

	var m struct {
		Server struct {
			Endpoints map[string]struct {
				Latency struct {
					P50 float64 `json:"p50_ms"`
					P99 float64 `json:"p99_ms"`
				} `json:"latency"`
			} `json:"endpoints"`
		} `json:"server"`
	}
	if err := c.GetJSON(ctx, "/metrics", &m); err != nil {
		return nil, err
	}
	res.set(defs, "server.results_p50_ms", m.Server.Endpoints["results"].Latency.P50, 0)
	res.set(defs, "server.results_p99_ms", m.Server.Endpoints["results"].Latency.P99, 0)
	res.set(defs, "server.jobs_p50_ms", m.Server.Endpoints["jobs"].Latency.P50, 0)
	res.set(defs, "server.sweeps_p50_ms", m.Server.Endpoints["sweeps"].Latency.P50, 0)

	var appendUS []float64
	var raws [][]byte
	for range appendRawCalls {
		t0 := time.Now()
		raws = s.store.AppendRaw(readQuery, raws[:0])
		appendUS = append(appendUS, float64(time.Since(t0))/1e3)
	}
	res.set(defs, "results.appendraw_us_p50", median(appendUS), len(appendUS))
	res.setPercentile(defs, "results.appendraw_us_p99", appendUS, 99)

	req := s.resubmitRequest()
	var resolveMS []float64
	for range minReps {
		var st experiments.SweepStats
		cfg := experiments.SweepConfig{Apps: req.Apps, Kinds: []schemes.Kind{resubmitScheme}, Workers: workers, Store: s.store, Stats: &st}
		t0 := time.Now()
		_, err := newHarness(s.g.scale, e.seed).Sweep(cfg)
		resolveMS = append(resolveMS, float64(time.Since(t0))/1e6)
		if err != nil || st.Served != 1 {
			return nil, fmt.Errorf("a direct sweep over the warm store served %d of 1 cells: %v", st.Served, err)
		}
	}
	res.set(defs, "experiments.warm_resolve_ms", median(resolveMS), len(resolveMS))

	sc, err := storeCalibration(s.store.Dir(), filepath.Join(e.dir, "store-calibration"), s.rows)
	if err != nil {
		return nil, err
	}
	sc.report(res)
	return res, nil
}

// syntheticRow is a filler row shaped like a real one, for stores that
// need bulk before any real row exists.
func syntheticRow(rng *stats.Rng) experiments.SweepRow {
	return experiments.SweepRow{
		Cycles: rng.Uint64n(1 << 30), Instrs: rng.Uint64n(1 << 30),
		IPC: rng.Float64() * 4, APKI: rng.Float64() * 50, MPKI: rng.Float64() * 20,
		LLCAccesses: rng.Uint64n(1 << 24), Hits: rng.Uint64n(1 << 23), Misses: rng.Uint64n(1 << 22),
		EnergyPJ: rng.Float64() * 1e10, NetworkEnergyPJ: rng.Float64() * 1e9,
		BankEnergyPJ: rng.Float64() * 1e9, MemoryEnergyPJ: rng.Float64() * 1e10,
		WallMS: rng.Float64() * 100,
	}
}

// likeShare is how often a filler copies one of the like rows under its
// own app, as another seed or scale of that app would be stored; the
// rest are filler apps. The share is an assumption: no store a user
// keeps is on record.
const likeShare = 8

// fillStore adds n filler records to the store in dir, each under a
// fresh key, and leaves it with a full index snapshot, as a long-lived
// store has. Every likeShare-th filler is a copy of a like row under
// that row's app and scheme; the others are copies (or synthetic rows,
// without like rows) under filler apps. The fillers are appended to
// rows.jsonl in the store's documented format (one Record per line)
// rather than through Put, which rewrites the whole snapshot every 64
// records: quadratic in the store's size.
func fillStore(dir string, n int, like []experiments.SweepRow, seed uint64) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "rows.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	rng := stats.NewRng(seed ^ 0x66696c6c) // "fill"
	kinds := schemes.PaperKinds()
	for i := range n {
		var row experiments.SweepRow
		switch {
		case len(like) == 0:
			row = syntheticRow(rng)
		case i%likeShare == 0:
			row = like[i/likeShare%len(like)]
		default:
			row = like[i%len(like)]
		}
		if len(like) == 0 || i%likeShare != 0 {
			row.App = fmt.Sprintf("fill-%05d", i/len(kinds))
			row.Scheme = kinds[i%len(kinds)].ID()
		}
		row.Key = fmt.Sprintf("%016x%016x%016x%016x", rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64())
		data, err := json.Marshal(row)
		if err != nil {
			f.Close()
			return err
		}
		line, err := json.Marshal(results.Record{Key: row.Key, App: row.App, Scheme: row.Scheme, Row: data})
		if err != nil {
			f.Close()
			return err
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := results.Open(dir)
	if err != nil {
		return err
	}
	bad := st.Stats().CorruptRows
	if err := st.Close(); err != nil {
		return err
	}
	if bad != 0 {
		return fmt.Errorf("the store rejected %d filler records", bad)
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o777); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o666); err != nil {
			return err
		}
	}
	return nil
}
