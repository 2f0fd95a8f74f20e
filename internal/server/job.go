package server

import (
	"context"
	"sync"
	"time"

	"whirlpool/internal/experiments"
	"whirlpool/internal/obs"
	"whirlpool/internal/spec"
)

// job is one submitted sweep. Rows accumulate in arrival order for SSE
// replay; the grid-ordered result lands when the sweep finishes.
type job struct {
	id  string
	req SweepRequest
	// grid is the resolved grid. Cells set marks a shard job (POST
	// /v1/cells): the grid is exactly that list, and it always runs
	// locally — never re-dispatched — even on a coordinator.
	grid    experiments.Grid
	total   int
	created time.Time
	// specFile is the parsed inline spec, registered when the job runs
	// (not at submit, so rejected submits don't touch the registry).
	specFile *spec.File
	// parentSC is the span context of the submit request (which itself
	// honors any inbound traceparent): the job's root span is parented
	// under it, so a coordinator-submitted shard job joins the
	// coordinator's trace. Zero when the submit was untraced.
	parentSC obs.SpanContext

	mu        sync.Mutex
	state     string // queued | running | done | failed | canceled
	completed []experiments.SweepRow
	result    []experiments.SweepRow
	stats     experiments.SweepStats
	msg       string
	cancelReq bool
	cancel    context.CancelFunc
	// badCounted tracks which row ordinals were already counted as
	// marshal failures, so the metrics counter grows per corrupt row,
	// not per SSE subscriber replaying it.
	badCounted map[int]bool
	// changed is closed and replaced on every state/row update — a
	// broadcast that wakes all SSE subscribers at once.
	changed chan struct{}
	// traceSC is the job's own root span context, set when the job
	// starts running; GET /v1/jobs/{id}/trace collects by its trace ID.
	traceSC obs.SpanContext
}

func isTerminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// isDone reports whether the job reached a terminal state.
func (j *job) isDone() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return isTerminal(j.state)
}

// bump wakes every waiter. Callers hold j.mu.
func (j *job) bump() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// start transitions queued → running and arms cancellation (honoring a
// cancel that arrived while the job was still queued).
func (j *job) start(cancel context.CancelFunc) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = cancel
	if j.cancelReq {
		cancel()
	}
	j.state = "running"
	j.bump()
}

// addRow records one finished cell (called from sweep workers,
// serialized by the engine).
func (j *job) addRow(done, total int, row experiments.SweepRow) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.completed = append(j.completed, row)
	j.bump()
}

// progress snapshots the job's state and cell counts (for fleet load
// samples, and for whether a new stream must flush its headers first).
func (j *job) progress() (state string, total, done int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.total, len(j.completed)
}

// finish records the terminal state and the grid-ordered result.
func (j *job) finish(rows []experiments.SweepRow, stats experiments.SweepStats, state, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result = rows
	j.stats = stats
	j.state = state
	j.msg = msg
	j.bump()
}

// requestCancel cancels a running job, or marks a queued one so it
// cancels the moment a runner picks it up.
func (j *job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancelReq = true
	if j.cancel != nil {
		j.cancel()
	}
}

// setTrace records the job's root span context (once, when it starts).
func (j *job) setTrace(sc obs.SpanContext) {
	j.mu.Lock()
	j.traceSC = sc
	j.mu.Unlock()
}

// traceContext returns the job's root span context (zero before the
// job has started running).
func (j *job) traceContext() obs.SpanContext {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceSC
}

// countMarshalErrOnce reports whether the row at this ordinal has not
// been counted as a marshal failure yet, marking it counted.
func (j *job) countMarshalErrOnce(idx int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.badCounted[idx] {
		return false
	}
	if j.badCounted == nil {
		j.badCounted = map[int]bool{}
	}
	j.badCounted[idx] = true
	return true
}

// resultRows returns the grid-ordered rows once the job is terminal
// (nil otherwise, with the current state for the error message).
func (j *job) resultRows() ([]experiments.SweepRow, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !isTerminal(j.state) || j.result == nil {
		return nil, j.state
	}
	return j.result, j.state
}

// status snapshots the job for /v1/jobs/{id} and the SSE done event.
func (j *job) status() map[string]any {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := map[string]any{
		"id":           j.id,
		"state":        j.state,
		"total":        j.total,
		"done":         len(j.completed),
		"served":       j.stats.Served,
		"computed":     j.stats.Computed,
		"cell_errors":  j.stats.Errors,
		"created_unix": j.created.Unix(),
	}
	if j.stats.Canceled > 0 {
		st["cells_canceled"] = j.stats.Canceled
	}
	if j.traceSC.Valid() {
		st["trace_id"] = j.traceSC.Trace.String()
	}
	if len(j.stats.Workers) > 0 {
		st["workers"] = j.stats.Workers
	}
	if j.msg != "" {
		st["error"] = j.msg
	}
	return st
}

// wait blocks until the job has rows past cursor or reaches a terminal
// state, returning the new rows, the advanced cursor, and whether the
// state is terminal. Both contexts abort the wait (returning no rows,
// non-terminal).
func (j *job) wait(cursor int, reqCtx, baseCtx context.Context) ([]experiments.SweepRow, int, bool) {
	aborted := false
	j.mu.Lock()
	for {
		if len(j.completed) > cursor || isTerminal(j.state) {
			rows := append([]experiments.SweepRow(nil), j.completed[cursor:]...)
			term := isTerminal(j.state)
			j.mu.Unlock()
			return rows, cursor + len(rows), term
		}
		if aborted {
			j.mu.Unlock()
			return nil, cursor, false
		}
		ch := j.changed
		j.mu.Unlock()
		select {
		case <-ch:
		case <-reqCtx.Done():
			// A context wake can race the job's own finish() bump (both
			// fire during shutdown); re-check once under the lock so a
			// finished job still delivers its final rows + done event.
			aborted = true
		case <-baseCtx.Done():
			aborted = true
		}
		j.mu.Lock()
	}
}
