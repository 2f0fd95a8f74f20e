// Package fleet is whirld's worker-membership subsystem: the elastic
// replacement for a static -workers URL list. Workers self-register
// with the coordinator (POST /v1/workers), renew a lease with periodic
// heartbeats that carry load samples, and fall out of the alive set
// when the lease deadline passes — exactly the failure treatment a
// dropped connection gets, so "silent" deaths (a hung host, a network
// partition) and loud ones (kill -9) converge on the same re-dispatch
// path. A worker that re-registers after expiry rejoins the alive set
// under a fresh epoch.
//
// The package has three halves:
//
//   - Registry: the coordinator-side membership book — registration,
//     lease renewal, lazy expiry, and immutable Snapshots the dispatch
//     layer routes against.
//   - The router (router.go): capacity- and load-weighted rendezvous
//     hashing over a membership snapshot. Deterministic given the same
//     snapshot, so distributed sweeps stay reproducible.
//   - Agent (agent.go): the worker-side join loop — register,
//     heartbeat with load samples, re-register when the lease is gone.
package fleet

import (
	"fmt"
	"io"
	"log/slog"
	"net/url"
	"strings"
	"sync"
	"time"
)

// DefaultLeaseTTL is the lease duration when RegistryOptions.LeaseTTL
// is zero: long enough that one dropped heartbeat (sent every TTL/3)
// does not kill a worker, short enough that a dead worker stops
// receiving shards within seconds.
const DefaultLeaseTTL = 10 * time.Second

// DefaultCapacity stands in for a worker that did not declare one
// (static -workers members, or a registration with capacity 0).
const DefaultCapacity = 4

// Load is one worker's self-reported load sample, carried by every
// heartbeat. The router discounts a worker's routing weight by its
// backlog, so capacity follows observed demand instead of a static
// split.
type Load struct {
	// InflightCells counts cells of running jobs not yet finished on
	// the worker.
	InflightCells int `json:"inflight_cells"`
	// QueuedCells counts cells of jobs still waiting in the worker's
	// queue.
	QueuedCells int `json:"queued_cells"`
	// CellsPerSec is the worker's recent completion throughput.
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
}

// backlog is the load's total undone-cell count, the quantity the
// router discounts by.
func (l Load) backlog() int { return l.InflightCells + l.QueuedCells }

// Member is one alive worker inside a membership Snapshot.
type Member struct {
	// ID is the registry-assigned name ("w1", "w2", ...), stable for
	// the worker's URL across re-registrations. The router hashes IDs,
	// not URLs, so routing does not move when a fleet is rebuilt on
	// different ports.
	ID string
	// URL is the worker's advertised base URL.
	URL string
	// Epoch increments on every (re-)registration of the same URL; a
	// dispatcher that saw epoch N die ignores that verdict when epoch
	// N+1 joins.
	Epoch int
	// Capacity is the worker's declared parallel simulation slots
	// (whirld -parallel); 0 means undeclared (DefaultCapacity applies).
	Capacity int
	// Static marks a member seeded from a -workers URL list: no lease,
	// never expires, no load samples.
	Static bool
	// Load is the worker's latest heartbeat sample (zero for static
	// members).
	Load Load
}

// Key identifies one incarnation of a member: dispatch tracks per-job
// deaths by it, so a re-registered worker (new epoch) is retried while
// the dead incarnation stays dead.
func (m Member) Key() string { return fmt.Sprintf("%s#%d", m.ID, m.Epoch) }

// EffectiveCapacity is the declared capacity with the undeclared
// default applied.
func (m Member) EffectiveCapacity() int {
	if m.Capacity > 0 {
		return m.Capacity
	}
	return DefaultCapacity
}

// Weight is the member's routing weight: its capacity, discounted by
// self-reported backlog per slot. An idle worker weighs its full
// capacity; a worker with a backlog of one full wave weighs half.
func (m Member) Weight() float64 {
	c := float64(m.EffectiveCapacity())
	return c / (1 + float64(m.Load.backlog())/c)
}

// Snapshot is an immutable view of the alive set, in registration
// order. Version changes exactly when membership changes (join, death,
// departure, re-registration) — not on heartbeats — so a dispatcher
// comparing versions between rounds counts real rebalances only.
type Snapshot struct {
	Version uint64
	Members []Member
}

// Membership is dispatch's view of the fleet: anything that can
// produce membership snapshots. *Registry implements it; a static
// -workers URL list is seeded into one with AddStatic.
type Membership interface {
	Snapshot() Snapshot
}

// ErrNoLease reports a heartbeat or deregistration for a worker the
// registry does not hold a live lease for (never registered, expired,
// or superseded by a newer epoch). The worker's move is to re-register.
var ErrNoLease = fmt.Errorf("fleet: no live lease for this worker (re-register)")

// RegistryOptions configure a Registry.
type RegistryOptions struct {
	// LeaseTTL is how long a lease lives without renewal; 0 means
	// DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Now overrides the clock (tests). Defaults to time.Now.
	Now func() time.Time
	// Log, if set, receives membership events (joins, expiries,
	// departures) with worker/epoch fields attached. Nil discards.
	Log *slog.Logger
}

// RegistryStats are the registry's monotonic counters plus the current
// alive/dead split, surfaced as the fleet.* metrics namespace.
type RegistryStats struct {
	Alive         int
	Dead          int
	Registrations int64
	Heartbeats    int64
	LeasesExpired int64
	Departures    int64
}

// WorkerInfo is one worker's full record for GET /v1/workers: identity,
// lease state, and the latest load sample.
type WorkerInfo struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Epoch    int    `json:"epoch"`
	Capacity int    `json:"capacity"`
	Static   bool   `json:"static,omitempty"`
	Alive    bool   `json:"alive"`
	// Reason says why a dead worker died: "lease expired" or "left".
	Reason string `json:"reason,omitempty"`
	// RegisteredUnix is the first registration time of this URL.
	RegisteredUnix int64 `json:"registered_unix"`
	// HeartbeatAgeS is seconds since the last heartbeat (or
	// registration); absent for static members.
	HeartbeatAgeS float64 `json:"heartbeat_age_s,omitempty"`
	// LeaseRemainingS is seconds until the lease expires; absent for
	// static and dead members.
	LeaseRemainingS float64 `json:"lease_remaining_s,omitempty"`
	Load            Load    `json:"load"`
}

// workerRec is the registry's mutable per-URL record.
type workerRec struct {
	id         string
	url        string
	epoch      int
	capacity   int
	static     bool
	alive      bool
	reason     string
	registered time.Time
	lastBeat   time.Time
	deadline   time.Time // zero for static members
	load       Load
}

// Registry is the coordinator-side membership book. All methods are
// safe for concurrent use; lease expiry is evaluated lazily against
// the clock on every read, so there is no background goroutine to
// leak and tests drive time explicitly.
type Registry struct {
	ttl time.Duration
	now func() time.Time
	log *slog.Logger

	mu      sync.Mutex
	byURL   map[string]*workerRec
	byID    map[string]*workerRec
	order   []*workerRec // registration order
	seq     int
	version uint64

	registrations int64
	heartbeats    int64
	leasesExpired int64
	departures    int64
}

// NewRegistry builds an empty registry.
func NewRegistry(opt RegistryOptions) *Registry {
	r := &Registry{
		ttl:   opt.LeaseTTL,
		now:   opt.Now,
		log:   opt.Log,
		byURL: map[string]*workerRec{},
		byID:  map[string]*workerRec{},
	}
	if r.ttl <= 0 {
		r.ttl = DefaultLeaseTTL
	}
	if r.now == nil {
		r.now = time.Now
	}
	if r.log == nil {
		r.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return r
}

// LeaseTTL returns the registry's lease duration.
func (r *Registry) LeaseTTL() time.Duration { return r.ttl }

// NormalizeURL canonicalizes a worker base URL the way every fleet
// entry point does: trimmed, http(s)-only, no trailing slash.
func NormalizeURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	if raw == "" {
		return "", fmt.Errorf("fleet: empty worker URL")
	}
	u, err := url.Parse(raw)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("fleet: worker URL %q is not http(s)://host[:port]", raw)
	}
	return raw, nil
}

// Register adds the worker at rawURL to the alive set (or renews and
// re-epochs it if the URL is already known), returning its member
// identity and the lease TTL the worker must heartbeat within.
func (r *Registry) Register(rawURL string, capacity int) (Member, time.Duration, error) {
	u, err := NormalizeURL(rawURL)
	if err != nil {
		return Member{}, 0, err
	}
	if capacity < 0 {
		return Member{}, 0, fmt.Errorf("fleet: negative capacity %d", capacity)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.pruneLocked(now)
	rec := r.byURL[u]
	if rec == nil {
		r.seq++
		rec = &workerRec{id: fmt.Sprintf("w%d", r.seq), url: u, registered: now}
		r.byURL[u] = rec
		r.byID[rec.id] = rec
		r.order = append(r.order, rec)
	}
	rejoin := rec.epoch > 0
	rec.epoch++
	rec.capacity = capacity
	rec.static = false
	rec.alive = true
	rec.reason = ""
	rec.lastBeat = now
	rec.deadline = now.Add(r.ttl)
	rec.load = Load{}
	r.registrations++
	r.version++
	verb := "joined"
	if rejoin {
		verb = "re-joined"
	}
	r.log.Info("fleet: worker "+verb,
		"worker", rec.id, "url", u, "capacity", capacity,
		"lease", r.ttl.String(), "epoch", rec.epoch)
	return rec.member(), r.ttl, nil
}

// AddStatic seeds a permanent member from a configured URL (-workers
// back-compat). Static members hold no lease and never expire; their
// only death is the per-job connection-drop detection in dispatch.
// Re-adding a known URL is a no-op.
func (r *Registry) AddStatic(rawURL string, capacity int) error {
	u, err := NormalizeURL(rawURL)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byURL[u] != nil {
		return nil
	}
	r.seq++
	now := r.now()
	rec := &workerRec{
		id: fmt.Sprintf("w%d", r.seq), url: u, epoch: 1, capacity: capacity,
		static: true, alive: true, registered: now, lastBeat: now,
	}
	r.byURL[u] = rec
	r.byID[rec.id] = rec
	r.order = append(r.order, rec)
	r.version++
	return nil
}

// Heartbeat renews the lease of worker id at the given epoch and
// records its load sample, returning the renewed TTL. ErrNoLease means
// the registry holds no live lease for that incarnation — the worker
// re-registers and carries on.
func (r *Registry) Heartbeat(id string, epoch int, load Load) (time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.pruneLocked(now)
	rec := r.byID[id]
	if rec == nil || !rec.alive || rec.static || rec.epoch != epoch {
		return 0, ErrNoLease
	}
	rec.lastBeat = now
	rec.deadline = now.Add(r.ttl)
	rec.load = load
	r.heartbeats++
	return r.ttl, nil
}

// Deregister removes worker id from the alive set (graceful leave, the
// worker is draining). ErrNoLease if the worker is not currently alive.
func (r *Registry) Deregister(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked(r.now())
	rec := r.byID[id]
	if rec == nil || !rec.alive || rec.static {
		return ErrNoLease
	}
	rec.alive = false
	rec.reason = "left"
	r.departures++
	r.version++
	r.log.Info("fleet: worker left", "worker", rec.id, "url", rec.url)
	return nil
}

// Snapshot returns the current alive set, expiring overdue leases
// first. The returned value is immutable.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked(r.now())
	members := make([]Member, 0, len(r.order))
	for _, rec := range r.order {
		if rec.alive {
			members = append(members, rec.member())
		}
	}
	return Snapshot{Version: r.version, Members: members}
}

// Workers lists every worker the registry has ever seen — alive and
// dead — in registration order, for GET /v1/workers.
func (r *Registry) Workers() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.pruneLocked(now)
	out := make([]WorkerInfo, 0, len(r.order))
	for _, rec := range r.order {
		wi := WorkerInfo{
			ID: rec.id, URL: rec.url, Epoch: rec.epoch, Capacity: rec.capacity,
			Static: rec.static, Alive: rec.alive, Reason: rec.reason,
			RegisteredUnix: rec.registered.Unix(), Load: rec.load,
		}
		if !rec.static {
			wi.HeartbeatAgeS = now.Sub(rec.lastBeat).Seconds()
			if rec.alive {
				wi.LeaseRemainingS = rec.deadline.Sub(now).Seconds()
			}
		}
		out = append(out, wi)
	}
	return out
}

// Stats snapshots the registry's counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked(r.now())
	st := RegistryStats{
		Registrations: r.registrations,
		Heartbeats:    r.heartbeats,
		LeasesExpired: r.leasesExpired,
		Departures:    r.departures,
	}
	for _, rec := range r.order {
		if rec.alive {
			st.Alive++
		} else {
			st.Dead++
		}
	}
	return st
}

// pruneLocked expires every leased member whose deadline has passed.
// Callers hold r.mu.
func (r *Registry) pruneLocked(now time.Time) {
	for _, rec := range r.order {
		if !rec.alive || rec.static || now.Before(rec.deadline) {
			continue
		}
		rec.alive = false
		rec.reason = "lease expired"
		r.leasesExpired++
		r.version++
		r.log.Warn("fleet: lease expired; marked dead",
			"worker", rec.id, "url", rec.url, "epoch", rec.epoch,
			"silence_s", fmt.Sprintf("%.1f", now.Sub(rec.lastBeat).Seconds()))
	}
}

func (rec *workerRec) member() Member {
	return Member{
		ID: rec.id, URL: rec.url, Epoch: rec.epoch,
		Capacity: rec.capacity, Static: rec.static, Load: rec.load,
	}
}
