package server

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"whirlpool/internal/fleet"
	"whirlpool/internal/results"
)

// metrics are the daemon's monotonic counters. /metrics renders them,
// with everything else it reports, from metricTable.
type metrics struct {
	jobsSubmitted atomic.Int64
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCanceled  atomic.Int64
	rowsServed    atomic.Int64
	rowsComputed  atomic.Int64
	// rowMarshalErrs counts SSE rows that could not be marshaled and
	// were surfaced as error rows instead of being dropped.
	rowMarshalErrs atomic.Int64
	// shardJobs counts POST /v1/cells submissions accepted (this daemon
	// acting as a distributed worker).
	shardJobs atomic.Int64
	// redispatched counts cells moved off dead workers to survivors
	// (this daemon acting as a coordinator); workersLost counts the
	// worker deaths that caused them.
	redispatched atomic.Int64
	workersLost  atomic.Int64
	// rebalances counts dispatch rounds that ran against a changed
	// fleet membership (a worker joined, died, or left mid-job and the
	// pending cells were re-routed).
	rebalances atomic.Int64
	// shed counts requests rejected by a per-endpoint concurrency limit
	// (429 + Retry-After) — distinct from queue-full 503s, which are
	// jobs the daemon accepted the connection for but had no queue
	// space to hold.
	shed atomic.Int64
}

// metric is one row of metricTable: one value, declared once, rendered
// into both the JSON tree and the Prometheus exposition.
type metric struct {
	// path is the dotted JSON tree path. A "{endpoint}" or "{worker}"
	// segment stands for the entity's name.
	path string
	// prom is the Prometheus family name. Rows sharing a family are
	// adjacent; the rows after the first leave help and kind empty.
	prom string
	help string
	kind string // "counter" or "gauge"
	// labels are the Prometheus label names. A leading "endpoint" or
	// "worker" makes the row per entity, one sample each, labeled with
	// the entity's name; a "name=value" entry is a fixed label.
	labels []string
	// read returns the value; i indexes the entity for per-entity rows.
	read func(m *metricsSnap, i int) float64
}

// metricsSnap is what one /metrics render reads: the store and fleet
// stats, the endpoints with their histogram snapshots, and the
// per-worker dispatch aggregates, each taken once.
type metricsSnap struct {
	s       *Server
	uptime  int64
	store   results.Stats
	fleet   fleet.RegistryStats
	epNames []string
	eps     []*endpoint
	hists   []histSnap
	urls    []string
	workers []workerAgg
}

func flag01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// metricTable is every value /metrics serves except memstats, which
// only the JSON tree carries (it is the expvar document verbatim).
var metricTable = []metric{
	{"server.uptime_s", "whirld_uptime_seconds", "Seconds since the daemon started.", "gauge", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.uptime) }},
	{"server.goroutines", "whirld_goroutines", "Live goroutines in the daemon process.", "gauge", nil,
		func(*metricsSnap, int) float64 { return float64(runtime.NumGoroutine()) }},
	{"server.spans", "whirld_spans_total", "Trace spans recorded since start.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.s.tracer.Total()) }},
	{"server.shed", "whirld_shed_total", "Requests shed by per-endpoint concurrency limits.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.s.metrics.shed.Load()) }},

	{"jobs.submitted", "whirld_jobs_submitted_total", "Jobs accepted onto the queue.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.s.metrics.jobsSubmitted.Load()) }},
	{"jobs.done", "whirld_jobs_done_total", "Jobs finished successfully.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.s.metrics.jobsDone.Load()) }},
	{"jobs.failed", "whirld_jobs_failed_total", "Jobs that failed.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.s.metrics.jobsFailed.Load()) }},
	{"jobs.canceled", "whirld_jobs_canceled_total", "Jobs canceled before finishing.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.s.metrics.jobsCanceled.Load()) }},
	{"jobs.shards", "whirld_shard_jobs_total", "Shard jobs accepted via POST /v1/cells.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.s.metrics.shardJobs.Load()) }},
	{"jobs.rows.served", "whirld_rows_served_total", "Sweep cells served from the result store.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.s.metrics.rowsServed.Load()) }},
	{"jobs.rows.computed", "whirld_rows_computed_total", "Sweep cells simulated.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.s.metrics.rowsComputed.Load()) }},
	{"jobs.rows.marshal_errors", "whirld_row_marshal_errors_total", "SSE rows surfaced as error rows because they could not be marshaled.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.s.metrics.rowMarshalErrs.Load()) }},

	{"dispatch.redispatched", "whirld_dispatch_redispatched_total", "Cells moved off dead workers to survivors.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.s.metrics.redispatched.Load()) }},
	{"dispatch.workers_lost", "whirld_dispatch_workers_lost_total", "Workers that died mid-shard.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.s.metrics.workersLost.Load()) }},
	{"fleet.rebalances", "whirld_dispatch_rebalances_total", "Dispatch rounds run against a changed fleet membership.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.s.metrics.rebalances.Load()) }},

	{"fleet.alive", "whirld_fleet_alive", "Fleet members currently alive.", "gauge", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.fleet.Alive) }},
	{"fleet.dead", "whirld_fleet_dead", "Fleet members currently dead.", "gauge", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.fleet.Dead) }},
	{"fleet.registrations", "whirld_fleet_registrations_total", "Worker registrations.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.fleet.Registrations) }},
	{"fleet.heartbeats", "whirld_fleet_heartbeats_total", "Worker heartbeats.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.fleet.Heartbeats) }},
	{"fleet.leases_expired", "whirld_fleet_leases_expired_total", "Worker leases expired.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.fleet.LeasesExpired) }},
	{"fleet.departures", "whirld_fleet_departures_total", "Graceful worker departures.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.fleet.Departures) }},

	{"store.hits", "whirld_store_hits_total", "Result store lookups served.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.store.Hits) }},
	{"store.misses", "whirld_store_misses_total", "Result store lookups missed.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.store.Misses) }},
	{"store.puts", "whirld_store_puts_total", "Result store commits.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.store.Puts) }},
	{"store.corrupt_rows", "whirld_store_corrupt_rows_total", "Corrupt rows skipped while reading the store.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.store.CorruptRows) }},
	{"store.index_rebuilds", "whirld_store_index_rebuilds_total", "Store opens that rescanned rows.jsonl instead of using the index.", "counter", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.store.IndexRebuilds) }},
	{"store.records", "whirld_store_records", "Records currently in the result store.", "gauge", nil,
		func(m *metricsSnap, _ int) float64 { return float64(m.store.Records) }},

	{"server.endpoints.{endpoint}.requests", "whirld_endpoint_requests_total", "Requests received, by endpoint.", "counter", []string{"endpoint"},
		func(m *metricsSnap, i int) float64 { return float64(m.eps[i].requests.Load()) }},
	{"server.endpoints.{endpoint}.inflight", "whirld_endpoint_inflight", "Requests currently in flight, by endpoint.", "gauge", []string{"endpoint"},
		func(m *metricsSnap, i int) float64 { return float64(m.eps[i].inflight.Load()) }},
	{"server.endpoints.{endpoint}.shed", "whirld_endpoint_shed_total", "Requests shed, by endpoint.", "counter", []string{"endpoint"},
		func(m *metricsSnap, i int) float64 { return float64(m.eps[i].shed.Load()) }},
	{"server.endpoints.{endpoint}.limit", "whirld_endpoint_limit", "Concurrency limit, by endpoint (0 = unlimited).", "gauge", []string{"endpoint"},
		func(m *metricsSnap, i int) float64 { return float64(m.eps[i].limit) }},
	{"server.endpoints.{endpoint}.latency.count", "whirld_endpoint_latency_observations_total", "Latency observations, by endpoint.", "counter", []string{"endpoint"},
		func(m *metricsSnap, i int) float64 { return float64(m.hists[i].count) }},
	{"server.endpoints.{endpoint}.latency.mean_ms", "whirld_endpoint_latency_mean_ms", "Mean request latency in milliseconds, by endpoint.", "gauge", []string{"endpoint"},
		func(m *metricsSnap, i int) float64 { return roundMS(m.hists[i].meanUS()) }},
	{"server.endpoints.{endpoint}.latency.p50_ms", "whirld_endpoint_latency_ms", "Request latency quantile snapshot in milliseconds, by endpoint.", "gauge", []string{"endpoint", "quantile=0.5"},
		func(m *metricsSnap, i int) float64 { return roundMS(m.hists[i].quantile(0.50)) }},
	{"server.endpoints.{endpoint}.latency.p95_ms", "whirld_endpoint_latency_ms", "", "", []string{"endpoint", "quantile=0.95"},
		func(m *metricsSnap, i int) float64 { return roundMS(m.hists[i].quantile(0.95)) }},
	{"server.endpoints.{endpoint}.latency.p99_ms", "whirld_endpoint_latency_ms", "", "", []string{"endpoint", "quantile=0.99"},
		func(m *metricsSnap, i int) float64 { return roundMS(m.hists[i].quantile(0.99)) }},

	{"dispatch.workers.per_worker.{worker}.served", "whirld_worker_cells_total", "Cells delivered per worker, by resolution.", "counter", []string{"worker", "kind=served"},
		func(m *metricsSnap, i int) float64 { return float64(m.workers[i].served) }},
	{"dispatch.workers.per_worker.{worker}.computed", "whirld_worker_cells_total", "", "", []string{"worker", "kind=computed"},
		func(m *metricsSnap, i int) float64 { return float64(m.workers[i].computed) }},
	{"dispatch.workers.per_worker.{worker}.errors", "whirld_worker_cells_total", "", "", []string{"worker", "kind=errors"},
		func(m *metricsSnap, i int) float64 { return float64(m.workers[i].errors) }},
	{"dispatch.workers.per_worker.{worker}.redispatched", "whirld_worker_cells_total", "", "", []string{"worker", "kind=redispatched"},
		func(m *metricsSnap, i int) float64 { return float64(m.workers[i].redispatched) }},
	{"dispatch.workers.per_worker.{worker}.dead", "whirld_worker_dead", "Whether the worker has died mid-shard (1) or not (0).", "gauge", []string{"worker"},
		func(m *metricsSnap, i int) float64 { return flag01(m.workers[i].dead) }},
}

// handleMetrics serves metricTable as a JSON tree (the default, plus
// memstats) or, with ?format=prom, as Prometheus text exposition
// format 0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		tree := s.snapshotMetrics().tree()
		if ms := expvar.Get("memstats"); ms != nil {
			tree["memstats"] = json.RawMessage(ms.String())
		}
		writeJSON(w, http.StatusOK, tree)
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.snapshotMetrics().writeProm(w)
	default:
		httpErr(w, http.StatusBadRequest, errBadRequest, "unknown format %q (valid: json, prom)", format)
	}
}

// snapshotMetrics takes the per-render state metricTable reads. The
// per-worker aggregates are copied under dispMu.
func (s *Server) snapshotMetrics() *metricsSnap {
	m := &metricsSnap{
		s:      s,
		uptime: int64(time.Since(s.started).Seconds()),
		store:  s.cfg.Store.Stats(),
		fleet:  s.fleet.Stats(),
		eps:    s.endpointsByName(),
	}
	for _, ep := range m.eps {
		m.epNames = append(m.epNames, ep.name)
		m.hists = append(m.hists, ep.hist.snapshot())
	}
	s.dispMu.Lock()
	for _, url := range s.dispOrder {
		m.urls = append(m.urls, url)
		m.workers = append(m.workers, *s.dispWorkers[url])
	}
	s.dispMu.Unlock()
	return m
}

// entities names the samples row r renders: the endpoint or worker
// names for a per-entity row, else one unnamed sample.
func (m *metricsSnap) entities(r *metric) []string {
	if len(r.labels) == 0 {
		return []string{""}
	}
	switch r.labels[0] {
	case "endpoint":
		return m.epNames
	case "worker":
		return m.urls
	}
	panic("server: metric " + r.path + " has no entity label")
}

// tree renders the table as nested JSON objects.
func (m *metricsSnap) tree() map[string]any {
	root := map[string]any{}
	for ri := range metricTable {
		r := &metricTable[ri]
		segs := strings.Split(r.path, ".")
		names := m.entities(r)
		if len(names) == 0 {
			// No workers yet: per_worker is still there, empty.
			node := root
			for _, seg := range segs {
				if seg[0] == '{' {
					break
				}
				node = subtree(node, seg)
			}
		}
		for i, name := range names {
			node := root
			for _, seg := range segs[:len(segs)-1] {
				if seg[0] == '{' {
					seg = name
				}
				node = subtree(node, seg)
			}
			node[segs[len(segs)-1]] = r.read(m, i)
		}
	}
	return root
}

// subtree returns node's child object named key, adding it if absent.
func subtree(node map[string]any, key string) map[string]any {
	child, ok := node[key].(map[string]any)
	if !ok {
		child = map[string]any{}
		node[key] = child
	}
	return child
}

// writeProm renders the table as Prometheus text exposition: one
// HELP/TYPE pair per family, then one sample per row and entity.
// Families with no entities (no workers yet) are left out.
func (m *metricsSnap) writeProm(w io.Writer) {
	p := promWriter{w: w}
	family := ""
	for ri := range metricTable {
		r := &metricTable[ri]
		names := m.entities(r)
		if len(names) == 0 {
			continue
		}
		if r.prom != family {
			family = r.prom
			p.head(r.prom, r.help, r.kind)
		}
		for i, name := range names {
			var kv []string
			for _, l := range r.labels {
				k, v, fixed := strings.Cut(l, "=")
				if !fixed {
					v = name
				}
				kv = append(kv, k, v)
			}
			p.sample(r.prom, promLabels(kv...), r.read(m, i))
		}
	}
}
