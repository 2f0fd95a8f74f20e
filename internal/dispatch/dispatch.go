// Package dispatch is the coordinator half of distributed sweep
// execution: it routes a sweep's pending cells across the worker fleet
// by content-address, collects their rows over the existing SSE/HTTP
// job machinery, and re-dispatches cells when a worker dies — or
// hands them to a worker that joined — mid-job.
//
// Workers come from a fleet.Membership (the coordinator's live
// registry of self-registered workers, or a static URL list via New).
// Dispatch proceeds in rounds: each round snapshots the alive set,
// assigns pending cells in grid order to their weighted-rendezvous-
// ranked members (fleet.Rank — capacity- and load-aware, deterministic
// given the snapshot) up to a per-member quota, runs the shards in
// parallel, and re-snapshots for the next round. The quota is what
// makes the fleet elastic mid-job: cells beyond the fleet's current
// per-round appetite wait, so a worker that registers between rounds
// is guaranteed work while earlier arrivals are still busy, and a
// worker whose lease expires loses only its in-flight shard — a
// watcher cancels it and the cells re-enter the next round.
//
// The wire protocol is the worker daemon's POST /v1/cells endpoint (a
// CellsRequest: shared sweep parameters plus one shard's explicit cell
// list) followed by the standard GET /v1/jobs/{id}/stream SSE feed,
// spoken through internal/apiclient — worker failures arrive as typed
// apiclient.Error values, so a deterministic 400 rejection, retryable
// 429/503 back-pressure (with its Retry-After hint), and transport
// death are distinguished by type, not by string matching.
// Rows route back into the coordinator's grid by the cell key each row
// carries (falling back to the app/mix × scheme identity when a key is
// absent); the coordinator — not the worker — owns the grid, the
// progress accounting, and the result-store commit, so a worker can
// disappear at any point without corrupting a job.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"

	"whirlpool/internal/apiclient"
	"whirlpool/internal/experiments"
	"whirlpool/internal/fleet"
	"whirlpool/internal/obs"
)

// shardRejectedError marks a deterministic worker-side rejection (HTTP
// 400 from /v1/cells): every worker would reject the same shard the
// same way, so re-dispatching is pointless — the cells become explicit
// error rows and the worker stays alive.
type shardRejectedError struct{ msg string }

func (e *shardRejectedError) Error() string { return e.msg }

// errLeaseLost is the cancel cause the membership watcher injects into
// a running shard whose worker fell out of the alive set (lease expiry
// or deregistration): unlike a job cancellation, the shard's cells
// must be re-dispatched.
var errLeaseLost = errors.New("worker lease lost")

// errorRowFor fabricates the error row for a cell the fleet could not
// compute.
func errorRowFor(c experiments.CellRef, msg string) experiments.SweepRow {
	name := c.Cell.App
	if c.Cell.Mix != "" {
		name = c.Cell.Mix
	}
	return experiments.SweepRow{App: name, Scheme: c.Cell.Scheme, Mix: c.Cell.Mix != "", Err: msg}
}

// JobParams are the sweep parameters every shard of one job shares;
// they mirror the corresponding POST /v1/sweeps fields.
type JobParams struct {
	// Spec is the job's inline workload-spec file, forwarded verbatim so
	// workers can resolve spec-defined apps and mixes.
	Spec     json.RawMessage `json:"spec,omitempty"`
	Scale    float64         `json:"scale,omitempty"`
	Seed     uint64          `json:"seed,omitempty"`
	Reconfig uint64          `json:"reconfig,omitempty"`
	NoBypass bool            `json:"nobypass,omitempty"`
}

// CellsRequest is the POST /v1/cells body: the shared parameters plus
// the explicit cells of one shard. The worker runs exactly these cells
// as one job (internal/server decodes this same type).
type CellsRequest struct {
	JobParams
	Cells []experiments.SweepCell `json:"cells"`
}

// Options configure a Pool.
type Options struct {
	// Client overrides the HTTP client (tests, timeouts). The default
	// has no overall timeout: SSE streams live as long as the shard.
	Client *http.Client
	// Log, if set, receives dispatch progress events (worker deaths,
	// re-dispatches, rebalances) with worker/cells fields. Nil discards.
	Log *slog.Logger
	// Tracer, if set, records one "dispatch.shard" span per shard POSTed
	// to a worker (parented under the span context riding the dispatch
	// Context, so shards hang off the coordinator's job span), propagates
	// the trace to workers via W3C traceparent on the shard submit, and
	// stitches each finished worker's span tree back in by fetching its
	// GET /v1/jobs/{id}/trace. Nil disables tracing.
	Tracer *obs.Tracer
	// Quota bounds how many cells one member is assigned per round;
	// nil means the member's effective capacity (its -parallel slots).
	// Small quotas mean more rounds and therefore more chances for
	// joiners to pick up work mid-job.
	Quota func(fleet.Member) int
	// WatchInterval is how often a running round re-checks membership
	// for mid-shard lease expiry; 0 means 250ms.
	WatchInterval time.Duration
}

// Pool is one job's view of the worker fleet. Worker deaths are sticky
// per incarnation for the lifetime of the Pool (one coordinator job):
// a worker that died mid-shard is not retried until it re-registers
// under a new epoch — or, for static members, until the next job
// builds a fresh Pool.
type Pool struct {
	membership fleet.Membership
	client     *http.Client
	log        *slog.Logger
	tracer     *obs.Tracer
	quota      func(fleet.Member) int
	watchEvery time.Duration

	mu         sync.Mutex
	apis       map[string]*apiclient.Client
	stats      map[string]*workerStats
	order      []string        // first-seen URL order, for Stats
	deadKeys   map[string]bool // Member.Key() → died this job
	rebalances int
	// redisp marks grid indices of cells that came back from a dead
	// worker: their next shard span carries redispatched=true.
	redisp map[int]bool
}

type workerStats struct {
	served, computed, errors, redispatched int
	dead                                   bool
}

// NewPool builds a Pool routing over a live membership: each dispatch
// round snapshots it, so workers joining or dying mid-job change the
// very next round's assignment.
func NewPool(m fleet.Membership, opt Options) (*Pool, error) {
	if m == nil {
		return nil, fmt.Errorf("dispatch: nil membership")
	}
	p := &Pool{
		membership: m,
		client:     opt.Client,
		log:        opt.Log,
		tracer:     opt.Tracer,
		quota:      opt.Quota,
		watchEvery: opt.WatchInterval,
		apis:       map[string]*apiclient.Client{},
		stats:      map[string]*workerStats{},
		deadKeys:   map[string]bool{},
		redisp:     map[int]bool{},
	}
	if p.client == nil {
		p.client = &http.Client{}
	}
	if p.log == nil {
		p.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if p.quota == nil {
		p.quota = func(m fleet.Member) int { return m.EffectiveCapacity() }
	}
	if p.watchEvery <= 0 {
		p.watchEvery = 250 * time.Millisecond
	}
	return p, nil
}

// Exec returns a RemoteExec bound to one job's parameters, pluggable
// straight into experiments.SweepConfig.Remote.
func (p *Pool) Exec(params JobParams) experiments.RemoteExec {
	return func(ctx context.Context, cells []experiments.CellRef, deliver func(experiments.CellRef, experiments.SweepRow)) error {
		return p.run(ctx, params, cells, deliver)
	}
}

// Stats snapshots the per-worker split for this Pool's job, in
// first-contact order.
func (p *Pool) Stats() []experiments.WorkerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]experiments.WorkerStats, 0, len(p.order))
	for _, url := range p.order {
		w := p.stats[url]
		out = append(out, experiments.WorkerStats{
			Worker: url, Served: w.served, Computed: w.computed,
			Errors: w.errors, Redispatched: w.redispatched, Dead: w.dead,
		})
	}
	return out
}

// Rebalances counts the rounds that ran against a changed membership
// (a join, death, or departure between rounds re-routed the pending
// cells).
func (p *Pool) Rebalances() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rebalances
}

// statsForLocked returns the per-URL tally, creating it on first
// contact. Callers hold p.mu.
func (p *Pool) statsForLocked(url string) *workerStats {
	w := p.stats[url]
	if w == nil {
		w = &workerStats{}
		p.stats[url] = w
		p.order = append(p.order, url)
	}
	return w
}

func (p *Pool) apiFor(m fleet.Member) (*apiclient.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if api := p.apis[m.URL]; api != nil {
		return api, nil
	}
	api, err := apiclient.New(m.URL, p.client)
	if err != nil {
		return nil, fmt.Errorf("dispatch: worker %q: %v", m.URL, err)
	}
	p.apis[m.URL] = api
	return api, nil
}

// routeKey is the rendezvous key for one cell: its content-address,
// falling back to the identity triple for uncacheable cells.
func routeKey(c experiments.CellRef) string {
	if c.Key != "" {
		return c.Key
	}
	return identOf(c.Cell)
}

// shardAssign is one member's work for one round.
type shardAssign struct {
	member fleet.Member
	cells  []experiments.CellRef
}

// assignRound routes pending cells (in grid order) onto the alive
// members by weighted rendezvous rank, capping each member at its
// round quota. Cells that find every ranked member full wait for the
// next round — that deferral is what guarantees a mid-job joiner gets
// cells. Deterministic given (alive, pending).
func (p *Pool) assignRound(alive []fleet.Member, pending []experiments.CellRef) (shards []shardAssign, deferred []experiments.CellRef) {
	snap := fleet.Snapshot{Members: alive}
	byID := map[string]int{} // member ID → index in shards
	for _, c := range pending {
		placed := false
		for _, m := range fleet.Rank(snap, routeKey(c)) {
			q := p.quota(m)
			if q < 1 {
				q = 1
			}
			i, ok := byID[m.ID]
			if !ok {
				i = len(shards)
				byID[m.ID] = i
				shards = append(shards, shardAssign{member: m})
			}
			if len(shards[i].cells) >= q {
				continue
			}
			shards[i].cells = append(shards[i].cells, c)
			placed = true
			break
		}
		if !placed {
			deferred = append(deferred, c)
		}
	}
	out := shards[:0]
	for _, s := range shards {
		if len(s.cells) > 0 {
			out = append(out, s)
		}
	}
	return out, deferred
}

// run dispatches cells in rounds until every one is delivered or no
// workers survive. Each round snapshots the membership, assigns the
// pending cells up to per-member quotas, and runs the shards in
// parallel under a lease watcher; a failed shard marks its worker
// incarnation dead and feeds its undelivered cells — plus any cells
// deferred past the round's quotas — into the next round.
func (p *Pool) run(ctx context.Context, params JobParams, cells []experiments.CellRef, deliver func(experiments.CellRef, experiments.SweepRow)) error {
	pending := cells
	var lastVer uint64
	ran := false
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		snap := p.membership.Snapshot()
		var alive []fleet.Member
		p.mu.Lock()
		for _, m := range snap.Members {
			if !p.deadKeys[m.Key()] {
				alive = append(alive, m)
				p.statsForLocked(m.URL).dead = false
			}
		}
		total := len(p.order)
		p.mu.Unlock()
		if len(alive) == 0 {
			return fmt.Errorf("all %d workers failed with %d cells undelivered", total, len(pending))
		}
		if ran && snap.Version != lastVer {
			p.mu.Lock()
			p.rebalances++
			p.mu.Unlock()
			p.log.Info("dispatch: membership changed; rebalancing",
				"cells", len(pending), "workers", len(alive))
		}
		ran, lastVer = true, snap.Version

		shards, deferred := p.assignRound(alive, pending)
		next := p.runRound(ctx, params, shards, deliver)
		if err := ctx.Err(); err != nil {
			return err
		}
		// Redispatched counts cells actually moved to survivors: with no
		// one left, the undelivered cells become error rows instead.
		next = append(next, deferred...)
		sort.Slice(next, func(i, j int) bool { return next[i].Index < next[j].Index })
		pending = next
	}
	return ctx.Err()
}

// runRound executes one round's shards in parallel, watching
// membership for mid-shard lease expiry, and returns the cells that
// must re-dispatch (from workers that died this round).
func (p *Pool) runRound(ctx context.Context, params JobParams, shards []shardAssign, deliver func(experiments.CellRef, experiments.SweepRow)) []experiments.CellRef {
	type running struct {
		member fleet.Member
		cancel context.CancelCauseFunc
	}
	live := make([]running, len(shards))
	ctxs := make([]context.Context, len(shards))
	for i := range shards {
		shardCtx, cancel := context.WithCancelCause(ctx)
		ctxs[i] = shardCtx
		live[i] = running{member: shards[i].member, cancel: cancel}
		defer cancel(nil)
	}

	// Lease watcher: while the round runs, a member that falls out of
	// the alive set gets its shard canceled with errLeaseLost so its
	// cells re-enter the next round immediately instead of waiting for
	// a TCP timeout. Static members hold no lease and are skipped.
	watchStop := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		t := time.NewTicker(p.watchEvery)
		defer t.Stop()
		for {
			select {
			case <-watchStop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
			}
			aliveKeys := map[string]bool{}
			for _, m := range p.membership.Snapshot().Members {
				aliveKeys[m.Key()] = true
			}
			for _, r := range live {
				if !r.member.Static && !aliveKeys[r.member.Key()] {
					r.cancel(errLeaseLost)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var next []experiments.CellRef
	type death struct {
		url string
		n   int
	}
	var deaths []death
	for i := range shards {
		wg.Add(1)
		go func(shardCtx context.Context, m fleet.Member, shard []experiments.CellRef) {
			defer wg.Done()
			undone, err := p.runShard(ctx, shardCtx, m, params, shard, deliver)
			if err == nil || ctx.Err() != nil {
				return
			}
			var rej *shardRejectedError
			if errors.As(err, &rej) {
				// Deterministic rejection: the cells are poison for
				// every worker, so fail them here instead of killing
				// the fleet one healthy worker at a time.
				p.log.Warn("dispatch: worker rejected its shard; failing cells",
					"worker", m.URL, "err", err.Error(), "cells", len(undone))
				p.mu.Lock()
				p.statsForLocked(m.URL).errors += len(undone)
				p.mu.Unlock()
				for _, c := range undone {
					deliver(c, errorRowFor(c, err.Error()))
				}
				return
			}
			p.mu.Lock()
			p.deadKeys[m.Key()] = true
			p.statsForLocked(m.URL).dead = true
			for _, c := range undone {
				p.redisp[c.Index] = true
			}
			p.mu.Unlock()
			p.log.Warn("dispatch: worker failed; cells undelivered",
				"worker", m.URL, "err", err.Error(),
				"undelivered", len(undone), "shard", len(shard))
			mu.Lock()
			next = append(next, undone...)
			deaths = append(deaths, death{m.URL, len(undone)})
			mu.Unlock()
		}(ctxs[i], shards[i].member, shards[i].cells)
	}
	wg.Wait()
	close(watchStop)
	<-watchDone

	if len(next) > 0 && p.anySurvivors() {
		p.mu.Lock()
		for _, d := range deaths {
			p.statsForLocked(d.url).redispatched += d.n
		}
		p.mu.Unlock()
	}
	return next
}

// anySurvivors reports whether the current membership still holds a
// member this job hasn't declared dead.
func (p *Pool) anySurvivors() bool {
	snap := p.membership.Snapshot()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range snap.Members {
		if !p.deadKeys[m.Key()] {
			return true
		}
	}
	return false
}

// runShard runs one worker's shard: submit the cells, follow the job's
// SSE stream, and deliver each row into the coordinator's grid. It
// returns the cells that were not delivered (for re-dispatch) and a
// non-nil error when the worker must be considered dead: connection
// failures, a stream that ends without its done event, a worker job
// that finished canceled/failed (worker shutdown cancels its jobs), or
// a lease lost mid-shard (shardCtx canceled by the round's watcher).
// Canceled rows are never delivered — those cells belong to a survivor.
func (p *Pool) runShard(jobCtx, shardCtx context.Context, m fleet.Member, params JobParams, shard []experiments.CellRef, deliver func(experiments.CellRef, experiments.SweepRow)) (undelivered []experiments.CellRef, err error) {
	// One span per shard, parented under whatever span context rides the
	// job's context (the coordinator's job span). The shard's submit ctx
	// carries this span, so apiclient stamps it into the POST's
	// traceparent header and the worker's whole job joins our trace.
	parent, _ := obs.FromContext(jobCtx)
	sp := p.tracer.Start(parent, "dispatch.shard")
	sp.SetStr("worker", m.URL)
	sp.SetInt("cells", int64(len(shard)))
	if n := p.countRedispatched(shard); n > 0 {
		sp.SetBool("redispatched", true)
		sp.SetInt("redispatched_cells", int64(n))
		// Mark each moved cell with its own zero-length child span, so a
		// failover's second placement is visible per cell in the tree.
		for _, c := range shard {
			if !p.isRedispatched(c.Index) {
				continue
			}
			name := c.Cell.App
			if c.Cell.Mix != "" {
				name = c.Cell.Mix
			}
			cellSp := p.tracer.Start(sp.Context(), "dispatch.redispatch")
			cellSp.SetStr("app", name)
			cellSp.SetStr("scheme", c.Cell.Scheme)
			cellSp.SetBool("redispatched", true)
			cellSp.SetStr("worker", m.URL)
			cellSp.EndDuration(0)
		}
	}
	defer func() {
		if err != nil {
			sp.SetBool("error", true)
		}
		sp.End()
	}()
	shardCtx = obs.NewContext(shardCtx, sp.Context())

	api, err := p.apiFor(m)
	if err != nil {
		return shard, err
	}
	// Route returned rows by key first, then by identity triple (keys
	// are recomputed worker-side and can be empty for uncacheable
	// cells; identities are unique within one job's grid).
	byKey := map[string]int{}
	byIdent := map[string]int{}
	taken := make([]bool, len(shard))
	req := CellsRequest{JobParams: params, Cells: make([]experiments.SweepCell, len(shard))}
	for i, c := range shard {
		req.Cells[i] = c.Cell
		if c.Key != "" {
			byKey[c.Key] = i
		}
		byIdent[identOf(c.Cell)] = i
	}
	// take routes a returned row to its shard cell. keyMismatch marks a
	// row whose identity matches but whose recomputed content-address
	// does not — the worker simulated different inputs (a stale .wtrc
	// copy, say), and memoizing its numbers under our key would poison
	// the store.
	take := func(row experiments.SweepRow) (ref experiments.CellRef, ok, keyMismatch bool) {
		ident := identOf(experiments.SweepCell{App: row.App, Scheme: row.Scheme})
		if row.Mix {
			ident = identOf(experiments.SweepCell{Mix: row.App, Scheme: row.Scheme})
		}
		i, found := byKey[row.Key]
		if row.Key == "" || !found {
			i, found = byIdent[ident]
			if found && row.Key != "" && shard[i].Key != "" && row.Key != shard[i].Key {
				keyMismatch = true
			}
		}
		if !found || taken[i] {
			return experiments.CellRef{}, false, false
		}
		taken[i] = true
		return shard[i], true, keyMismatch
	}
	leftover := func() []experiments.CellRef {
		var out []experiments.CellRef
		for i, t := range taken {
			if !t {
				out = append(out, shard[i])
			}
		}
		return out
	}
	// leaseLost distinguishes the watcher's cancellation (the worker's
	// lease expired → death, re-dispatch) from a job cancellation
	// (quiet abort).
	leaseLost := func() bool {
		return errors.Is(context.Cause(shardCtx), errLeaseLost)
	}

	id, err := p.submitCells(shardCtx, api, &req)
	if err != nil {
		if jobCtx.Err() != nil {
			return shard, nil
		}
		if leaseLost() {
			return shard, fmt.Errorf("lease lost before shard submit: %w", errLeaseLost)
		}
		return shard, err
	}
	// Whatever happens below, don't leave the worker simulating cells
	// nobody is waiting for (coordinator canceled, stream died, lease
	// lost while the worker itself is still up).
	defer func() {
		if err != nil || shardCtx.Err() != nil {
			p.cancelJob(api, id)
		}
	}()

	stream, err := api.Stream(shardCtx, "/v1/jobs/"+id+"/stream")
	if err != nil {
		if jobCtx.Err() != nil {
			return shard, nil
		}
		if leaseLost() {
			return shard, fmt.Errorf("lease lost opening shard stream: %w", errLeaseLost)
		}
		return shard, fmt.Errorf("stream: %w", err)
	}
	defer stream.Close()

	doneState := ""
	deliveredN := 0
	for doneState == "" {
		ev, nextErr := stream.Next()
		if nextErr != nil {
			// The stream died (or ended cleanly — io.EOF) before the
			// worker's authoritative done-event split; attribute what it
			// demonstrably delivered as computed so the per-worker stats
			// still roughly sum to the grid.
			p.mu.Lock()
			p.statsForLocked(m.URL).computed += deliveredN
			p.mu.Unlock()
			if jobCtx.Err() != nil {
				return leftover(), nil
			}
			if leaseLost() {
				return leftover(), fmt.Errorf("lease expired mid-shard: %w", errLeaseLost)
			}
			if nextErr == io.EOF {
				nextErr = nil
			}
			return leftover(), fmt.Errorf("stream ended without done event (%v)", nextErr)
		}
		switch ev.Name {
		case "row":
			var row experiments.SweepRow
			if json.Unmarshal(ev.Data, &row) != nil {
				continue
			}
			if row.Err == "canceled" {
				continue // worker shutting down: the cell re-dispatches
			}
			ref, ok, keyMismatch := take(row)
			if !ok {
				continue
			}
			if keyMismatch {
				row = errorRowFor(ref, fmt.Sprintf(
					"key mismatch: worker %s computed %s for a cell addressed %s — differing inputs (stale trace file?); row rejected",
					m.URL, row.Key, ref.Key))
			}
			if row.Err != "" {
				p.mu.Lock()
				p.statsForLocked(m.URL).errors++
				p.mu.Unlock()
			}
			deliveredN++
			deliver(ref, row)
		case "done":
			var st struct {
				State    string `json:"state"`
				Served   int    `json:"served"`
				Computed int    `json:"computed"`
			}
			if json.Unmarshal(ev.Data, &st) == nil {
				doneState = st.State
				p.mu.Lock()
				w := p.statsForLocked(m.URL)
				w.served += st.Served
				w.computed += st.Computed
				p.mu.Unlock()
			}
		}
	}
	if doneState != "done" {
		return leftover(), fmt.Errorf("worker job finished %s", doneState)
	}
	p.stitchWorkerTrace(api, id, sp.Context())
	return leftover(), nil
}

// countRedispatched counts the shard's cells previously marked as
// re-dispatched (they came back undelivered from a dead worker).
func (p *Pool) countRedispatched(shard []experiments.CellRef) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range shard {
		if p.redisp[c.Index] {
			n++
		}
	}
	return n
}

func (p *Pool) isRedispatched(index int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.redisp[index]
}

// stitchWorkerTrace pulls a finished shard's span tree off the worker
// (GET /v1/jobs/{id}/trace) and folds it into the coordinator's tracer,
// so one distributed sweep collects as one tree. Only the subtree
// parented under this shard's span is taken: a worker serving several
// shards of the same sweep holds them all under one trace ID, and
// re-emitting a sibling shard's spans would duplicate them. Strictly
// best-effort: a worker without the endpoint, or one that died right
// after its done event, just leaves a gap in the trace.
func (p *Pool) stitchWorkerTrace(api *apiclient.Client, id string, sc obs.SpanContext) {
	if p.tracer == nil || !sc.Valid() {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	raw, err := api.GetRaw(ctx, "/v1/jobs/"+id+"/trace")
	if err != nil {
		return
	}
	spans, err := obs.ParseSpans(bytes.NewReader(raw))
	if err != nil {
		return
	}
	keep := map[obs.SpanID]bool{sc.Span: true}
	for changed := true; changed; {
		changed = false
		for _, s := range spans {
			if s.Trace == sc.Trace && !keep[s.ID] && keep[s.Parent] {
				keep[s.ID] = true
				changed = true
			}
		}
	}
	for _, s := range spans {
		if s.ID != sc.Span && keep[s.ID] {
			p.tracer.Emit(s)
		}
	}
}

func identOf(c experiments.SweepCell) string {
	return c.App + "|" + c.Mix + "|" + c.Scheme
}

// submitRetries and submitBackoff bound how long a shard submit rides
// out transient 503s (worker job queue full, ~3s total) before the
// worker is declared dead.
const (
	submitRetries = 5
	submitBackoff = 200 * time.Millisecond
)

// submitCells POSTs one shard and returns the worker's job id. Typed
// back-pressure (apiclient.Error.Temporary: a 429 shed or a 503
// queue-full/drain) is retried with backoff — honoring the server's
// Retry-After hint when it gives one — so a briefly saturated worker
// keeps its shard. The delay is jittered to ±50% so shards rebuffed
// by the same saturated worker at the same moment don't resubmit in
// lockstep and collide again.
func (p *Pool) submitCells(ctx context.Context, api *apiclient.Client, req *CellsRequest) (string, error) {
	for attempt := 0; ; attempt++ {
		id, retryAfter, retryable, err := p.trySubmitCells(ctx, api, req)
		if err == nil {
			return id, nil
		}
		if !retryable || attempt >= submitRetries {
			return "", err
		}
		base := submitBackoff * time.Duration(attempt+1)
		if retryAfter > 0 {
			base = retryAfter
		}
		//whirl:wallclock retry-backoff jitter shapes timing only; no row data derives from it
		delay := base/2 + rand.N(base)
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(delay):
		}
	}
}

func (p *Pool) trySubmitCells(ctx context.Context, api *apiclient.Client, req *CellsRequest) (id string, retryAfter time.Duration, retryable bool, err error) {
	var out struct {
		ID string `json:"id"`
	}
	if err := api.PostJSON(ctx, "/v1/cells", req, &out); err != nil {
		var ae *apiclient.Error
		if !errors.As(err, &ae) {
			// Transport failure (refused, reset, timeout): the worker is
			// unreachable, not back-pressured.
			return "", 0, false, fmt.Errorf("submit cells: %w", err)
		}
		if ae.Status == http.StatusBadRequest {
			// The worker understood the shard and said no — deterministic,
			// so don't kill workers over it (see shardRejectedError).
			return "", 0, false, &shardRejectedError{fmt.Sprintf("submit cells: %v", ae)}
		}
		return "", ae.RetryAfter, ae.Temporary(), fmt.Errorf("submit cells: %w", ae)
	}
	if out.ID == "" {
		return "", 0, false, fmt.Errorf("submit cells: worker accepted the shard but returned no job id")
	}
	return out.ID, 0, false, nil
}

// cancelJob best-effort DELETEs a worker job (the coordinator is gone
// or no longer listening). It deliberately ignores the caller's
// context, which is typically already canceled.
func (p *Pool) cancelJob(api *apiclient.Client, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = api.Delete(ctx, "/v1/jobs/"+id, nil)
}
