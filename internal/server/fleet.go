package server

import (
	"encoding/json"
	"net/http"
	"time"

	"whirlpool/internal/experiments"
	"whirlpool/internal/fleet"
)

// The /v1/workers surface: the coordinator half of the fleet protocol.
// Workers self-register, renew their lease with heartbeats that carry
// load samples, and can leave gracefully; operators read the roster.
// The worker side lives in fleet.Agent (whirld -join).

// handleWorkerRegister admits a worker into the fleet (or renews and
// re-epochs a known URL), returning its identity and lease terms.
func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	var req fleet.RegisterRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpErr(w, http.StatusBadRequest, errBadRequest, "bad request body: %v", err)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpErrRetry(w, http.StatusServiceUnavailable, 5, errShuttingDown, "daemon is shutting down")
		return
	}
	m, ttl, err := s.fleet.Register(req.URL, req.Capacity)
	if err != nil {
		httpErr(w, http.StatusBadRequest, errBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, fleet.RegisterResponse{
		ID: m.ID, Epoch: m.Epoch, LeaseTTLS: ttl.Seconds(), HeartbeatS: ttl.Seconds() / 3,
	})
}

// handleWorkerHeartbeat renews a lease and records the load sample. A
// 404 tells the worker its lease is gone (expired, superseded, or
// never existed) — the fleet.Agent reacts by re-registering.
func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	var req fleet.HeartbeatRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpErr(w, http.StatusBadRequest, errBadRequest, "bad request body: %v", err)
		return
	}
	id := r.PathValue("id")
	ttl, err := s.fleet.Heartbeat(id, req.Epoch, req.Load)
	if err != nil {
		httpErr(w, http.StatusNotFound, errNotFound, "no live lease for worker %q at epoch %d (re-register)", id, req.Epoch)
		return
	}
	writeJSON(w, http.StatusOK, fleet.HeartbeatResponse{LeaseTTLS: ttl.Seconds()})
}

// handleWorkerDeregister removes a worker gracefully (it is draining).
func (s *Server) handleWorkerDeregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.fleet.Deregister(id); err != nil {
		httpErr(w, http.StatusNotFound, errNotFound, "no live lease for worker %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "state": "left"})
}

// handleWorkersList reports the full roster — alive and dead — plus
// the alive count, in registration order.
func (s *Server) handleWorkersList(w http.ResponseWriter, r *http.Request) {
	workers := s.fleet.Workers()
	alive := 0
	for _, wi := range workers {
		if wi.Alive {
			alive++
		}
	}
	if workers == nil {
		workers = []fleet.WorkerInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"alive":     alive,
		"lease_ttl": s.fleet.LeaseTTL().Seconds(),
		"workers":   workers,
	})
}

// Fleet exposes the daemon's worker registry (whirld wires it into
// logging/tests; dispatch routes over it).
func (s *Server) Fleet() *fleet.Registry { return s.fleet }

// Load samples this daemon's current load for fleet heartbeats (the
// worker side of the protocol): cells of running jobs not yet done,
// cells of queued jobs, and recent completion throughput measured
// between successive calls.
func (s *Server) Load() fleet.Load {
	var inflight, queued int
	s.mu.Lock()
	for _, id := range s.order {
		state, total, done := s.jobs[id].progress()
		switch state {
		case "running":
			if n := total - done; n > 0 {
				inflight += n
			}
		case "queued":
			queued += total
		}
	}
	s.mu.Unlock()

	done := s.cellsDone.Load()
	now := time.Now()
	var rate float64
	s.loadMu.Lock()
	if !s.loadAt.IsZero() {
		if dt := now.Sub(s.loadAt).Seconds(); dt > 0 {
			rate = float64(done-s.loadCells) / dt
		}
	}
	s.loadAt, s.loadCells = now, done
	s.loadMu.Unlock()
	return fleet.Load{InflightCells: inflight, QueuedCells: queued, CellsPerSec: rate}
}

// recordWorkerStats folds one finished coordinator job's per-worker
// split into the daemon-lifetime aggregates served by /metrics
// (dispatch.workers.per_worker).
func (s *Server) recordWorkerStats(stats []experiments.WorkerStats) {
	s.dispMu.Lock()
	defer s.dispMu.Unlock()
	for _, ws := range stats {
		agg := s.dispWorkers[ws.Worker]
		if agg == nil {
			agg = &workerAgg{}
			if s.dispWorkers == nil {
				s.dispWorkers = map[string]*workerAgg{}
			}
			s.dispWorkers[ws.Worker] = agg
			s.dispOrder = append(s.dispOrder, ws.Worker)
		}
		agg.served += int64(ws.Served)
		agg.computed += int64(ws.Computed)
		agg.errors += int64(ws.Errors)
		agg.redispatched += int64(ws.Redispatched)
		agg.dead = ws.Dead
	}
}

// workerAgg is one worker URL's daemon-lifetime dispatch tally.
type workerAgg struct {
	served, computed, errors, redispatched int64
	// dead reflects the worker's fate in the most recent job that
	// dispatched to it.
	dead bool
}
