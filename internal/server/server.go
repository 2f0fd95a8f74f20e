// Package server implements whirld's HTTP surface: submit sweeps as
// async jobs, stream rows over SSE as cells finish, and query the
// persistent result store. Every row a job computes is committed to the
// store as it lands, and every cell already in the store is served
// without simulation, so the daemon and the CLIs (whirlsweep -store)
// share one memoized result universe.
//
// Endpoints (see docs/server.md for the reference + curl examples):
//
//	POST   /v1/sweeps           submit a sweep (spec + grid) as a job
//	POST   /v1/cells            run an explicit cell list (worker shard)
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        job status + cell-resolution counters
//	GET    /v1/jobs/{id}/stream SSE: completed rows as they finish
//	GET    /v1/jobs/{id}/rows   finished grid in csv/json/table form
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/results          query the store (app/scheme/key filters)
//	POST   /v1/workers          a worker joins the fleet (lease grant)
//	POST   /v1/workers/{id}/heartbeat renew the lease + report load
//	DELETE /v1/workers/{id}     a worker leaves gracefully
//	GET    /v1/workers          fleet roster (alive + dead)
//	GET    /healthz             liveness + build identity
//	GET    /metrics             metric table as JSON or Prometheus text
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whirlpool/internal/dispatch"
	"whirlpool/internal/experiments"
	"whirlpool/internal/fleet"
	"whirlpool/internal/obs"
	"whirlpool/internal/results"
	"whirlpool/internal/spec"
	"whirlpool/internal/workloads"
)

// Config configures a Server.
type Config struct {
	// Store is the persistent result store; required.
	Store *results.Store
	// TraceCacheDir, when non-empty, gives every job's harness an
	// on-disk trace cache (uncached cells still skip regeneration
	// across jobs).
	TraceCacheDir string
	// Workers bounds each job's sweep parallelism; <= 0 means
	// GOMAXPROCS.
	Workers int
	// LeaseTTL is how long a worker that joined via POST /v1/workers
	// (whirld -join) stays alive without a heartbeat; past it the
	// worker is dead exactly as if its connection had dropped
	// mid-shard. <= 0 means the fleet default (10s). Whenever the
	// fleet has at least one alive member the daemon is a coordinator:
	// a sweep's unserved cells are sharded across the alive set
	// (internal/dispatch) instead of being simulated locally, and every
	// returned row is committed to this daemon's store. Shard jobs
	// (POST /v1/cells) always run locally, so a coordinator is never
	// part of its own fleet.
	LeaseTTL time.Duration
	// Log, when non-nil, receives structured job, fleet membership, and
	// dispatch logs (whirld passes an obs.NewLogger writing the classic
	// "whirld: msg key=val" lines to stderr). Nil discards.
	Log *slog.Logger
	// QueueDepth bounds queued jobs; submits beyond it get 503.
	// <= 0 means 64.
	QueueDepth int
	// EndpointLimits overrides per-endpoint concurrency limits by
	// endpoint name (EndpointNames lists them). Requests beyond an
	// endpoint's limit are shed with 429 + Retry-After instead of
	// queuing behind it. Absent entries use defaultLimits; negative
	// values mean unlimited.
	EndpointLimits map[string]int
	// Version is reported by /healthz (cliutil.Version in whirld).
	Version string
}

// Server routes HTTP requests onto a bounded job pool running
// experiments.Sweep. Create with New, serve via Handler, stop with
// Close.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	seq      int
	draining bool

	queue  chan *job
	runner sync.WaitGroup

	// regMu serializes workload-spec registration: the workloads
	// registry is process-global, so concurrent submits registering
	// apps must not interleave. Jobs reusing one app name across
	// different specs race with in-flight sweeps of that name; keys
	// and stored rows stay truthful (both read the registry at sweep
	// start), but prefer distinct names.
	regMu sync.Mutex

	started   time.Time
	metrics   metrics
	endpoints []*endpoint

	// fleet is the worker registry: leased members joining via
	// /v1/workers.
	fleet *fleet.Registry
	log   *slog.Logger

	// tracer is the daemon's span ring: every request span, job span,
	// and sweep stage span lands here, and GET /v1/jobs/{id}/trace
	// serves a job's tree from it.
	tracer *obs.Tracer

	// cellsDone counts rows landed across all jobs (the throughput
	// numerator for Load's cells/sec); loadAt/loadCells are the
	// previous Load sample, guarded by loadMu.
	cellsDone atomic.Int64
	loadMu    sync.Mutex
	loadAt    time.Time
	loadCells int64

	// dispWorkers aggregates per-worker dispatch tallies across jobs
	// for /metrics (dispatch.workers.per_worker), guarded by dispMu.
	dispMu      sync.Mutex
	dispWorkers map[string]*workerAgg
	dispOrder   []string
}

// SweepRequest is the POST /v1/sweeps body. Semantics mirror the
// whirlsweep flags: both resolve through experiments.ResolveGrid.
type SweepRequest struct {
	// Spec is an optional inline workload-spec file (the same JSON
	// schema as docs/workload-specs.md); its apps are registered and
	// its mixes become sweepable by name.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Apps to sweep. Empty: the spec's apps, else every registered
	// app. ["all"] forces the full registry.
	Apps []string `json:"apps,omitempty"`
	// Mixes are mix names from Spec; ["all"] sweeps every mix in Spec.
	Mixes []string `json:"mixes,omitempty"`
	// Schemes to cross with every app and mix; empty means all.
	Schemes []string `json:"schemes,omitempty"`
	// Scale multiplies workload length (0 = 1.0).
	Scale float64 `json:"scale,omitempty"`
	// Seed drives workload generation (0 = the published default).
	Seed uint64 `json:"seed,omitempty"`
	// Reconfig overrides the D-NUCA reconfiguration period in cycles.
	Reconfig uint64 `json:"reconfig,omitempty"`
	// NoBypass disables VC bypassing in every run.
	NoBypass bool `json:"nobypass,omitempty"`
}

// New builds a Server and starts its job runner.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: Config.Store is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	for name := range cfg.EndpointLimits {
		if _, ok := defaultLimits[name]; !ok {
			return nil, fmt.Errorf("server: unknown endpoint %q in EndpointLimits (valid: %s)",
				name, strings.Join(EndpointNames(), ", "))
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		baseCtx: ctx,
		cancel:  cancel,
		jobs:    map[string]*job{},
		queue:   make(chan *job, cfg.QueueDepth),
		started: time.Now(),
	}
	s.log = cfg.Log
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.tracer = obs.New(0)
	s.fleet = fleet.NewRegistry(fleet.RegistryOptions{LeaseTTL: cfg.LeaseTTL, Log: s.log})
	s.mux = http.NewServeMux()
	// Routes sharing a name share one endpoint: one concurrency limit,
	// one latency histogram (server.endpoints.<name> in /metrics).
	// routeTraced additionally threads the request span's context into
	// the handler (submit paths, where the job must inherit the caller's
	// trace); plain route skips that injection so hot read paths like
	// /v1/results stay allocation-free.
	s.routeTraced("POST /v1/sweeps", "sweeps", s.handleSubmit(false))
	s.routeTraced("POST /v1/cells", "cells", s.handleSubmit(true))
	s.route("GET /v1/jobs", "jobs", s.handleJobs)
	s.route("GET /v1/jobs/{id}", "jobs", s.handleJob)
	s.route("DELETE /v1/jobs/{id}", "jobs", s.handleCancel)
	s.route("GET /v1/jobs/{id}/stream", "stream", s.handleStream)
	s.route("GET /v1/jobs/{id}/rows", "rows", s.handleRows)
	s.route("GET /v1/jobs/{id}/trace", "trace", s.handleTrace)
	s.route("GET /v1/results", "results", s.handleResults)
	s.route("POST /v1/workers", "workers", s.handleWorkerRegister)
	s.route("GET /v1/workers", "workers", s.handleWorkersList)
	s.route("POST /v1/workers/{id}/heartbeat", "workers", s.handleWorkerHeartbeat)
	s.route("DELETE /v1/workers/{id}", "workers", s.handleWorkerDeregister)
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	s.runner.Add(1)
	go s.runJobs()
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the daemon: new submits are rejected, running jobs are
// canceled (their already-committed rows stay in the store, so
// resubmitting resumes where they stopped), and the job runner exits.
// SSE streams of jobs that reached a terminal state deliver their
// final done event; streams cut off mid-cancellation end without one
// (the client sees a dropped stream and re-polls the job). The store
// itself is not closed; the owner does that after Close returns.
func (s *Server) Close() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	close(s.queue)
	// Jobs still queued (never started) must report a terminal state or
	// SSE subscribers would hang.
	for j := range s.queue {
		j.finish(nil, experiments.SweepStats{}, "canceled", "daemon shutting down")
	}
	s.runner.Wait()
}

// runJobs is the job runner: it executes queued jobs one at a time, in
// FIFO order, until the queue closes. Each job fans its cells across
// Workers, the right throughput model for CPU-bound simulation.
func (s *Server) runJobs() {
	defer s.runner.Done()
	for j := range s.queue {
		s.runJob(j)
		s.evictOld()
	}
}

// jobHistory bounds how many finished jobs stay queryable: their rows
// live in memory, while the store keeps the results forever.
const jobHistory = 256

// evictOld trims terminal jobs beyond jobHistory, oldest first, so
// a long-lived daemon's memory stays bounded. Running and queued jobs
// are never evicted; the evicted jobs' rows remain in the store.
func (s *Server) evictOld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	nTerm := 0
	for _, id := range s.order {
		if s.jobs[id].isDone() {
			nTerm++
		}
	}
	if nTerm <= jobHistory {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if nTerm > jobHistory && s.jobs[id].isDone() {
			delete(s.jobs, id)
			nTerm--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.start(cancel)
	defer cancel()

	// The job's root span: child of the submit request's span (same
	// trace as the caller — for shard jobs, the coordinator's trace),
	// or a fresh root when the submit was untraced. Every sweep stage
	// span below parents under it via the context.
	jobSpan := s.tracer.Start(j.parentSC, "job")
	jobSpan.SetStr("id", j.id)
	jobSpan.SetInt("cells", int64(j.total))
	if j.grid.Config.Cells != nil {
		jobSpan.SetBool("shard", true)
	}
	j.setTrace(jobSpan.Context())
	ctx = obs.NewContext(ctx, jobSpan.Context())
	s.log.Info("job started", "job", j.id, "cells", j.total, "trace", jobSpan.Trace.String())

	// fail finishes the job (and its span) on pre-sweep errors.
	fail := func(msg string) {
		s.metrics.jobsFailed.Add(1)
		j.finish(nil, experiments.SweepStats{}, "failed", msg)
		jobSpan.SetStr("state", "failed")
		jobSpan.End()
		s.log.Warn("job failed", "job", j.id, "err", msg)
	}

	if j.specFile != nil {
		// Registration is what makes the spec's apps (and mix members)
		// resolvable; deferred to run time so rejected submits leave the
		// registry untouched, and serialized because it is
		// process-global.
		s.regMu.Lock()
		_, err := j.specFile.Register()
		s.regMu.Unlock()
		if err != nil {
			fail(err.Error())
			return
		}
	}

	h := experiments.NewHarness(j.grid.Scale)
	if j.req.Seed != 0 {
		h.Seed = j.req.Seed
	}
	if j.req.Reconfig != 0 {
		h.ReconfigCycles = j.req.Reconfig
	}
	h.CacheDir = s.cfg.TraceCacheDir

	var stats experiments.SweepStats
	cfg := j.grid.Config
	cfg.Workers = s.cfg.Workers
	cfg.NoBypass = j.req.NoBypass
	cfg.Context = ctx
	cfg.Store = s.cfg.Store
	cfg.Stats = &stats
	cfg.Tracer = s.tracer
	cfg.OnRow = func(done, total int, row experiments.SweepRow) {
		s.cellsDone.Add(1)
		j.addRow(done, total, row)
	}
	// Coordinator mode: shard this grid across the fleet's current
	// alive set instead of simulating here. The membership snapshot is
	// taken per dispatch round, so workers joining or dying mid-job
	// change the routing live. A job that starts against an empty
	// fleet runs locally even if workers join later. Shard jobs
	// (cfg.Cells) always run locally — that is the recursion anchor.
	var pool *dispatch.Pool
	if cfg.Cells == nil && len(s.fleet.Snapshot().Members) > 0 {
		var perr error
		pool, perr = dispatch.NewPool(s.fleet, dispatch.Options{Log: s.log, Tracer: s.tracer})
		if perr != nil {
			fail(perr.Error())
			return
		}
		forward, ferr := forwardSpec(j)
		if ferr != nil {
			fail(ferr.Error())
			return
		}
		cfg.Remote = pool.Exec(dispatch.JobParams{
			Spec:     forward,
			Scale:    j.grid.Scale,
			Seed:     j.req.Seed,
			Reconfig: j.req.Reconfig,
			NoBypass: j.req.NoBypass,
		})
	}
	rows, err := h.Sweep(cfg)
	if pool != nil {
		stats.Workers = pool.Stats()
		for _, ws := range stats.Workers {
			s.metrics.redispatched.Add(int64(ws.Redispatched))
			if ws.Dead {
				s.metrics.workersLost.Add(1)
			}
		}
		s.metrics.rebalances.Add(int64(pool.Rebalances()))
		s.recordWorkerStats(stats.Workers)
	}
	s.metrics.rowsServed.Add(int64(stats.Served))
	s.metrics.rowsComputed.Add(int64(stats.Computed))
	final := "done"
	switch {
	case ctx.Err() != nil:
		s.metrics.jobsCanceled.Add(1)
		final = "canceled"
		j.finish(rows, stats, final, ctx.Err().Error())
	case err != nil:
		s.metrics.jobsFailed.Add(1)
		final = "failed"
		j.finish(rows, stats, final, err.Error())
	default:
		s.metrics.jobsDone.Add(1)
		msg := ""
		if stats.Errors > 0 {
			msg = fmt.Sprintf("%d of %d cells failed", stats.Errors, len(rows))
		}
		j.finish(rows, stats, final, msg)
	}
	jobSpan.SetInt("served", int64(stats.Served))
	jobSpan.SetInt("computed", int64(stats.Computed))
	jobSpan.SetStr("state", final)
	jobSpan.End()
	s.log.Info("job finished", "job", j.id, "state", final,
		"served", stats.Served, "computed", stats.Computed, "errors", stats.Errors)
}

// forwardSpec builds the workload spec a coordinator ships with every
// shard. The job's own inline spec is not enough: the grid may name
// apps that live only in this process's registry (registered by
// earlier jobs' specs — e.g. apps:["all"] on a long-lived daemon),
// which a worker could not resolve. So the forwarded spec defines
// every app the grid touches, round-tripped from the registry the
// coordinator itself keyed the cells against, plus the job spec's mix
// definitions. Called after the job's spec is registered.
func forwardSpec(j *job) (json.RawMessage, error) {
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	grid := &j.grid.Config
	for _, a := range grid.Apps {
		add(a)
	}
	for _, m := range grid.Mixes {
		for _, a := range m.Apps {
			add(a)
		}
	}
	appSpecs := make([]workloads.AppSpec, 0, len(names))
	for _, n := range names {
		sp, ok := workloads.ByName(n)
		if !ok {
			return nil, fmt.Errorf("app %q vanished from the registry before dispatch", n)
		}
		appSpecs = append(appSpecs, sp)
	}
	f := &spec.File{Version: 1, Name: "dispatch", Apps: appSpecs}
	// Only the mixes this job sweeps: an unswept spec mix may reference
	// spec-only apps that are not in the forwarded app list, and the
	// worker's spec validation would reject the whole file over them.
	if j.specFile != nil && len(grid.Mixes) > 0 {
		want := make(map[string]bool, len(grid.Mixes))
		for _, m := range grid.Mixes {
			want[m.Name] = true
		}
		for _, m := range j.specFile.Mixes {
			if want[m.Name] {
				f.Mixes = append(f.Mixes, m)
			}
		}
	}
	data, err := spec.Encode(f)
	if err != nil {
		return nil, fmt.Errorf("encoding the forwarded spec: %v", err)
	}
	return data, nil
}

// --- request handling ---

// Error codes carried by the envelope on every non-2xx /v1 response.
// They are API surface: internal/apiclient exposes them verbatim and
// docs/api.md documents them, so treat renames as breaking changes.
const (
	errBadRequest     = "bad_request"      // 400: malformed body, unknown name, bad parameter
	errNotFound       = "not_found"        // 404: no such job
	errJobNotFinished = "job_not_finished" // 409: rows requested before the job is terminal
	errOverloaded     = "overloaded"       // 429: per-endpoint concurrency limit shed
	errQueueFull      = "queue_full"       // 503: job queue at capacity
	errShuttingDown   = "shutting_down"    // 503: daemon is draining
	errInternal       = "internal"         // 500: the daemon's fault, not the caller's
)

// httpErr writes the uniform JSON error envelope:
//
//	{"error": {"code": "bad_request", "message": "unknown app \"x\""}}
//
// Every non-2xx /v1 response goes through here (or httpErrRetry), so
// clients can rely on the shape.
//
//whirl:envelope the designated error-envelope writer; everything else routes errors here
func httpErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	body := getBody()
	defer putBody(body)
	// Strings always encode, so the envelope itself cannot fail.
	json.NewEncoder(body).Encode(map[string]any{
		"error": map[string]string{"code": code, "message": fmt.Sprintf(format, args...)},
	})
	writeBody(w, status, ctJSON, body.Bytes())
}

// httpErrRetry is httpErr plus a Retry-After hint — the back-pressure
// contract for 429 (concurrency shed) and 503 (queue full, draining):
// the condition is transient and the client should come back.
func httpErrRetry(w http.ResponseWriter, status, retryAfterSecs int, code, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	httpErr(w, status, code, format, args...)
}

// writeJSON sends v as two-space-indented JSON. A value that does not
// encode (a NaN, say) gets a 500 envelope, not a truncated body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body := getBody()
	defer putBody(body)
	enc := json.NewEncoder(body)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		httpErr(w, http.StatusInternalServerError, errInternal, "encoding the response: %v", err)
		return
	}
	writeBody(w, code, ctJSON, body.Bytes())
}

// handleSubmit enqueues a job built from a POST /v1/sweeps body, or
// with shard set a POST /v1/cells body: an explicit cell list (one
// shard of a distributed sweep) run as a regular job, with the same
// queue, SSE stream, and store commit path. The coordinator's dispatch
// layer is the intended caller of /v1/cells, but the endpoint is plain
// HTTP: anything that can name cells can use it.
func (s *Server) handleSubmit(shard bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, err := buildJob(http.MaxBytesReader(w, r.Body, 16<<20), shard)
		if err != nil {
			httpErr(w, http.StatusBadRequest, errBadRequest, "%v", err)
			return
		}
		j.parentSC, _ = obs.FromContext(r.Context())
		if s.enqueue(w, j) && shard {
			s.metrics.shardJobs.Add(1)
		}
	}
}

// enqueue admits a built job onto the runner queue and answers the
// submit request, reporting whether the job was accepted. Registering
// and enqueueing happen under one lock: Close flips draining before
// closing the queue (also under the lock), so no send can hit a closed
// channel, and a full-queue rejection never has to unwind shared
// state. Job IDs are allocated only for accepted jobs — a rejected
// submit must not burn a sequence number.
func (s *Server) enqueue(w http.ResponseWriter, j *job) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpErrRetry(w, http.StatusServiceUnavailable, 5, errShuttingDown, "daemon is shutting down")
		return false
	}
	// The id must be set before the job is visible to a runner (status
	// reads j.id without further synchronization), so name it before
	// the send and advance seq only once the queue accepts.
	j.id = fmt.Sprintf("j%d", s.seq+1)
	select {
	case s.queue <- j:
		s.seq++
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	default:
		s.mu.Unlock()
		httpErrRetry(w, http.StatusServiceUnavailable, 1, errQueueFull, "job queue is full (%d pending)", s.cfg.QueueDepth)
		return false
	}
	s.mu.Unlock()
	s.metrics.jobsSubmitted.Add(1)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     j.id,
		"state":  "queued",
		"total":  j.total,
		"status": "/v1/jobs/" + j.id,
		"stream": "/v1/jobs/" + j.id + "/stream",
		"rows":   "/v1/jobs/" + j.id + "/rows",
	})
	return true
}

// buildJob decodes a POST /v1/sweeps body, or with shard set a POST
// /v1/cells body, and resolves its grid (experiments.ResolveGrid, the
// resolver whirlsweep uses) into a queued job. The inline spec is
// parsed and validated now but registered only when the job runs
// (runJob): a rejected or queue-full submit must not mutate the
// process-global workload registry other clients sweep.
func buildJob(body io.Reader, shard bool) (*job, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req SweepRequest
	var cells []experiments.SweepCell
	if shard {
		var cr dispatch.CellsRequest
		if err := dec.Decode(&cr); err != nil {
			return nil, fmt.Errorf("bad request body: %v", err)
		}
		if len(cr.Cells) == 0 {
			return nil, fmt.Errorf("cells request has no cells")
		}
		req = SweepRequest{Spec: cr.Spec, Scale: cr.Scale, Seed: cr.Seed, Reconfig: cr.Reconfig, NoBypass: cr.NoBypass}
		cells = cr.Cells
	} else if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	gr := experiments.GridRequest{Apps: req.Apps, Mixes: req.Mixes, Schemes: req.Schemes, Cells: cells, Scale: req.Scale}
	var f *spec.File
	if len(req.Spec) > 0 {
		var err error
		if f, err = spec.Parse(req.Spec); err != nil {
			return nil, err
		}
		gr.Specs = []*spec.File{f}
	}
	grid, total, err := experiments.ResolveGrid(gr)
	if err != nil {
		return nil, err
	}
	return &job{req: req, grid: grid, total: total, specFile: f,
		state: "queued", created: time.Now(), changed: make(chan struct{})}, nil
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpErr(w, http.StatusNotFound, errNotFound, "no such job %q", r.PathValue("id"))
	}
	return j
}

// handleJobs lists every job this daemon has accepted, in submission
// order.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]map[string]any, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.status())
}

// handleStream serves the job's rows as Server-Sent Events: one "row"
// event per completed cell (already-finished rows replay first, so late
// subscribers see the full history), then one final "done" event.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpErr(w, http.StatusInternalServerError, errInternal, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// A job with rows or a terminal state answers the first wait at
	// once, so its headers go out with the first events. Only a stream
	// that may block flushes them now, so the client sees it open.
	if state, _, done := j.progress(); done == 0 && !isTerminal(state) {
		fl.Flush()
	}

	// Each wakeup's events (and the done event, once terminal) are built
	// here and sent in one Write and one Flush.
	buf := getBody()
	defer putBody(buf)
	cursor := 0
	for {
		rows, next, terminal := j.wait(cursor, r.Context(), s.baseCtx)
		buf.Reset()
		for i, row := range rows {
			// A client gone mid-replay must release the connection (and
			// the endpoint's inflight slot) now, not after the remaining
			// rows are serialized for a dead socket — on a big replay
			// that lag kept the stream gauge inflated long after the
			// disconnect.
			if r.Context().Err() != nil {
				return
			}
			data, err := json.Marshal(row)
			if err != nil {
				// Never swallow a row: an unmarshalable cell (e.g. a NaN
				// that slipped past the engine's guards) surfaces as an
				// error row so subscribers keep an accurate cell count,
				// and the counter makes the corruption observable —
				// once per corrupt row, not per subscriber replay.
				if j.countMarshalErrOnce(cursor + i) {
					s.metrics.rowMarshalErrs.Add(1)
				}
				errRow := experiments.SweepRow{
					App: row.App, Scheme: row.Scheme, Mix: row.Mix, Key: row.Key,
					Err: fmt.Sprintf("row not representable as JSON: %v", err),
				}
				if data, err = json.Marshal(errRow); err != nil {
					continue // unreachable: error rows marshal
				}
			}
			fmt.Fprintf(buf, "id: %d\nevent: row\ndata: %s\n\n", cursor+i+1, data)
		}
		cursor = next
		if terminal {
			data, _ := json.Marshal(j.status())
			fmt.Fprintf(buf, "event: done\ndata: %s\n\n", data)
		}
		if buf.Len() > 0 {
			w.Write(buf.Bytes())
			fl.Flush()
		}
		if terminal || r.Context().Err() != nil || s.baseCtx.Err() != nil {
			return
		}
	}
}

// handleRows returns the finished grid in whirlsweep's output formats
// (csv rows are byte-identical to `whirlsweep -format csv`).
func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	rows, state := j.resultRows()
	if rows == nil {
		httpErr(w, http.StatusConflict, errJobNotFinished, "job %s is %s; rows are available once it finishes", j.id, state)
		return
	}
	var write func(io.Writer, []experiments.SweepRow) error
	var ct string
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		write, ct = experiments.WriteRowsJSON, ctJSON
	case "csv":
		write, ct = experiments.WriteRowsCSV, "text/csv; charset=utf-8"
	case "table":
		write, ct = experiments.WriteRowsTable, "text/plain; charset=utf-8"
	default:
		httpErr(w, http.StatusBadRequest, errBadRequest, "unknown format %q (valid: json, csv, table)", format)
		return
	}
	body := getBody()
	defer putBody(body)
	if err := write(body, rows); err != nil {
		httpErr(w, http.StatusInternalServerError, errInternal, "rendering job %s rows: %v", j.id, err)
		return
	}
	writeBody(w, http.StatusOK, ct, body.Bytes())
}

// rawRowsPool recycles the raw-line gathering slice across /v1/results
// requests so the warm path allocates nothing per row or per request
// once the pool and the slice capacity are warm.
var rawRowsPool = sync.Pool{
	New: func() any { s := make([][]byte, 0, 256); return &s },
}

// handleResults queries the persistent store directly; filters are
// ?app=, ?scheme=, ?key=, ?limit=. Rows are served from the store's
// retained JSONL bytes (results.Store.AppendRaw), joined into a pooled
// body — the warm path does no per-row marshaling or allocation, which
// is what keeps p99 flat when whirlload overdrives this endpoint.
//
//whirl:zeroalloc
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q := results.Query{
		App:    params.Get("app"),
		Scheme: params.Get("scheme"),
		Key:    params.Get("key"),
	}
	if lim := params.Get("limit"); lim != "" {
		// strconv.Atoi, not Sscanf: "10abc" must be a 400, not a 10.
		n, err := strconv.Atoi(lim)
		if err != nil || n < 0 {
			httpErr(w, http.StatusBadRequest, errBadRequest, "bad limit %q (want a non-negative integer)", lim)
			return
		}
		q.Limit = n
	}
	ptr := rawRowsPool.Get().(*[][]byte)
	raws := s.cfg.Store.AppendRaw(q, (*ptr)[:0])
	size := len("[]\n")
	for _, raw := range raws {
		size += len(raw) + len(",\n")
	}
	body := getBody()
	body.Grow(size)
	body.WriteByte('[')
	for i, raw := range raws {
		if i > 0 {
			body.WriteString(",\n")
		}
		body.Write(raw)
	}
	body.WriteString("]\n")
	writeBody(w, http.StatusOK, ctJSON, body.Bytes())
	putBody(body)
	// Drop the row references before pooling so the pool does not pin
	// store bytes between requests.
	for i := range raws {
		raws[i] = nil
	}
	*ptr = raws[:0]
	rawRowsPool.Put(ptr)
}

// handleTrace serves a job's span tree as JSONL (one obs span per
// line, sorted by start time): the job's root span, the per-cell stage
// spans beneath it, and — for coordinator jobs — the stitched spans
// fetched back from each worker's shard job. Available as soon as the
// job starts running; before that there is no trace yet.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	sc := j.traceContext()
	if !sc.Valid() {
		httpErr(w, http.StatusConflict, errJobNotFinished, "job %s has not started; no trace recorded yet", j.id)
		return
	}
	spans := s.tracer.Collect(sc.Trace)
	body := getBody()
	defer putBody(body)
	for i := range spans {
		line := append(obs.AppendSpanJSON(body.AvailableBuffer(), &spans[i]), '\n')
		body.Write(line)
	}
	w.Header().Set("Trace-Id", sc.Trace.String())
	writeBody(w, http.StatusOK, "application/x-ndjson; charset=utf-8", body.Bytes())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":            !draining,
		"version":       s.cfg.Version,
		"go":            runtime.Version(),
		"uptime_s":      int64(time.Since(s.started).Seconds()),
		"goroutines":    runtime.NumGoroutine(),
		"jobs":          jobs,
		"store_records": s.cfg.Store.Len(),
	})
}
