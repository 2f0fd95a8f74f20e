package fleet

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"whirlpool/internal/apiclient"
)

// The wire shapes of the /v1/workers protocol, spoken by Agent and
// served by the coordinator's handlers (internal/server).

// RegisterRequest is the POST /v1/workers body.
type RegisterRequest struct {
	// URL is the worker's advertised base URL, as the coordinator
	// should dial it.
	URL string `json:"url"`
	// Capacity is the worker's parallel simulation slots (-parallel);
	// 0 means undeclared.
	Capacity int `json:"capacity"`
}

// RegisterResponse is the worker's identity and lease terms.
type RegisterResponse struct {
	ID        string  `json:"id"`
	Epoch     int     `json:"epoch"`
	LeaseTTLS float64 `json:"lease_ttl_s"`
	// HeartbeatS is the cadence the worker should beat at: a third of
	// the lease, so two consecutive lost beats still leave headroom.
	HeartbeatS float64 `json:"heartbeat_s"`
}

// HeartbeatRequest is the POST /v1/workers/{id}/heartbeat body.
type HeartbeatRequest struct {
	// Epoch must match the worker's current registration; a stale
	// epoch (the worker re-registered, or this lease already expired
	// and someone else re-registered the URL) gets a 404.
	Epoch int `json:"epoch"`
	// Load is the worker's current load sample.
	Load Load `json:"load"`
}

// HeartbeatResponse carries the renewed lease.
type HeartbeatResponse struct {
	LeaseTTLS float64 `json:"lease_ttl_s"`
}

// AgentOptions configure a worker's join loop.
type AgentOptions struct {
	// Coordinator is the coordinator's base URL (whirld -join).
	Coordinator string
	// Advertise is this worker's own base URL, as the coordinator
	// should dial it.
	Advertise string
	// Capacity is the worker's parallel simulation slots (-parallel).
	Capacity int
	// Load supplies the load sample sent with each heartbeat; nil
	// sends zeros.
	Load func() Load
	// Log, if set, receives join/lease events. Nil discards.
	Log *slog.Logger
}

// Agent is the worker side of the fleet protocol: it registers with
// the coordinator, heartbeats at a third of the lease TTL (with ±20%
// jitter so a fleet started together doesn't beat in lockstep), and
// re-registers whenever the coordinator no longer recognizes the lease
// — a coordinator restart or an expiry during a network hiccup heals
// without operator action. Close deregisters gracefully.
type Agent struct {
	api    *apiclient.Client
	opt    AgentOptions
	cancel context.CancelFunc
	done   chan struct{}

	mu    sync.Mutex
	id    string
	epoch int
}

// StartAgent validates options, performs no blocking I/O, and starts
// the join loop in the background; registration failures are retried
// with backoff until Close.
func StartAgent(opt AgentOptions) (*Agent, error) {
	if _, err := NormalizeURL(opt.Advertise); err != nil {
		return nil, err
	}
	api, err := apiclient.New(opt.Coordinator, nil)
	if err != nil {
		return nil, err
	}
	if opt.Log == nil {
		opt.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opt.Load == nil {
		opt.Load = func() Load { return Load{} }
	}
	ctx, cancel := context.WithCancel(context.Background())
	a := &Agent{api: api, opt: opt, cancel: cancel, done: make(chan struct{})}
	go a.run(ctx)
	return a, nil
}

// Close stops the heartbeat loop and deregisters from the coordinator
// (best-effort: a dead coordinator just lets the lease lapse).
func (a *Agent) Close() {
	a.cancel()
	<-a.done
	a.mu.Lock()
	id := a.id
	a.mu.Unlock()
	if id == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = a.api.Delete(ctx, "/v1/workers/"+id, nil)
}

// Identity returns the agent's current member identity ("" before the
// first successful registration).
func (a *Agent) Identity() (id string, epoch int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.id, a.epoch
}

func (a *Agent) run(ctx context.Context) {
	defer close(a.done)
	const maxBackoff = 5 * time.Second
	backoff := 250 * time.Millisecond
	for ctx.Err() == nil {
		reg, err := a.register(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			a.opt.Log.Warn("fleet: registering failed; will retry",
				"coordinator", a.api.Base(), "err", err.Error(), "backoff", backoff.String())
			if !sleep(ctx, backoff) {
				return
			}
			backoff = min(backoff*2, maxBackoff)
			continue
		}
		backoff = 250 * time.Millisecond
		a.opt.Log.Info("fleet: joined",
			"coordinator", a.api.Base(), "worker", reg.ID, "epoch", reg.Epoch,
			"lease_s", reg.LeaseTTLS, "heartbeat_s", reg.HeartbeatS)
		a.heartbeatLoop(ctx, reg)
	}
}

func (a *Agent) register(ctx context.Context) (RegisterResponse, error) {
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	var resp RegisterResponse
	err := a.api.PostJSON(rctx, "/v1/workers", RegisterRequest{
		URL: a.opt.Advertise, Capacity: a.opt.Capacity,
	}, &resp)
	if err != nil {
		return RegisterResponse{}, err
	}
	a.mu.Lock()
	a.id, a.epoch = resp.ID, resp.Epoch
	a.mu.Unlock()
	return resp, nil
}

// heartbeatLoop renews the lease until the coordinator forgets it
// (→ return, caller re-registers) or ctx is canceled. Transport
// errors are retried on the normal cadence: the lease is TTL and the
// beat TTL/3, so two consecutive failures still leave headroom.
func (a *Agent) heartbeatLoop(ctx context.Context, reg RegisterResponse) {
	interval := time.Duration(reg.HeartbeatS * float64(time.Second))
	if interval <= 0 {
		interval = DefaultLeaseTTL / 3
	}
	for {
		d := interval + time.Duration((rand.Float64()-0.5)*0.4*float64(interval))
		if !sleep(ctx, d) {
			return
		}
		hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		var resp HeartbeatResponse
		err := a.api.PostJSON(hctx, "/v1/workers/"+reg.ID+"/heartbeat",
			HeartbeatRequest{Epoch: reg.Epoch, Load: a.opt.Load()}, &resp)
		cancel()
		if err == nil {
			continue
		}
		if ctx.Err() != nil {
			return
		}
		var ae *apiclient.Error
		if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
			a.opt.Log.Warn("fleet: lease gone at the coordinator; re-registering", "worker", reg.ID)
			return
		}
		a.opt.Log.Warn("fleet: heartbeat failed; lease expires if this persists",
			"coordinator", a.api.Base(), "err", err.Error())
	}
}

// sleep waits d or until ctx is done, reporting whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
