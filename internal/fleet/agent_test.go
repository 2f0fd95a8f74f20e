package fleet

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"whirlpool/internal/obs"
)

// testLog adapts t.Logf into the slog logger the agent expects.
func testLog(t *testing.T) *slog.Logger {
	return obs.NewLogger(testLogWriter{t}, "agent")
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// coordStub is a minimal coordinator speaking the /v1/workers protocol
// over a real Registry, standing in for internal/server in agent tests.
type coordStub struct {
	reg *Registry
	srv *httptest.Server
}

func newCoordStub(t *testing.T, ttl time.Duration) *coordStub {
	t.Helper()
	c := &coordStub{reg: NewRegistry(RegistryOptions{LeaseTTL: ttl})}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		m, lease, err := c.reg.Register(req.URL, req.Capacity)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(RegisterResponse{
			ID: m.ID, Epoch: m.Epoch,
			LeaseTTLS: lease.Seconds(), HeartbeatS: lease.Seconds() / 3,
		})
	})
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		lease, err := c.reg.Heartbeat(r.PathValue("id"), req.Epoch, req.Load)
		if err != nil {
			http.Error(w, `{"error":{"code":"not_found","message":"no lease"}}`, http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(HeartbeatResponse{LeaseTTLS: lease.Seconds()})
	})
	mux.HandleFunc("DELETE /v1/workers/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := c.reg.Deregister(r.PathValue("id")); err != nil {
			http.Error(w, `{"error":{"code":"not_found","message":"no lease"}}`, http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	c.srv = httptest.NewServer(mux)
	t.Cleanup(c.srv.Close)
	return c
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAgentRegistersAndHeartbeats(t *testing.T) {
	c := newCoordStub(t, 200*time.Millisecond)
	loads := 0
	a, err := StartAgent(AgentOptions{
		Coordinator: c.srv.URL,
		Advertise:   "http://worker:8081",
		Capacity:    3,
		Load:        func() Load { loads++; return Load{InflightCells: 2} },
		Log:         testLog(t),
	})
	if err != nil {
		t.Fatalf("StartAgent: %v", err)
	}
	defer a.Close()

	waitFor(t, "registration", func() bool { return len(c.reg.Snapshot().Members) == 1 })
	m := c.reg.Snapshot().Members[0]
	if m.URL != "http://worker:8081" || m.Capacity != 3 {
		t.Fatalf("registered member = %+v", m)
	}
	// Lease is 200ms, heartbeats every ~66ms: staying alive across 3
	// TTLs proves renewal works; load samples must flow through.
	waitFor(t, "load sample via heartbeat", func() bool {
		mem := c.reg.Snapshot().Members
		return len(mem) == 1 && mem[0].Load.InflightCells == 2
	})
	time.Sleep(600 * time.Millisecond)
	if len(c.reg.Snapshot().Members) != 1 {
		t.Fatal("agent's lease expired despite heartbeats")
	}
	if loads == 0 {
		t.Fatal("Load callback never sampled")
	}
}

func TestAgentCloseDeregisters(t *testing.T) {
	c := newCoordStub(t, 10*time.Second)
	a, err := StartAgent(AgentOptions{
		Coordinator: c.srv.URL, Advertise: "http://worker:8081", Capacity: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "registration", func() bool { return len(c.reg.Snapshot().Members) == 1 })
	a.Close()
	if len(c.reg.Snapshot().Members) != 0 {
		t.Fatal("Close did not deregister")
	}
	if st := c.reg.Stats(); st.Departures != 1 {
		t.Fatalf("stats = %+v, want 1 departure", st)
	}
}

// TestAgentReregistersAfterLeaseLoss: when the coordinator forgets the
// lease (here: forced expiry via a TTL shorter than the heartbeat
// cadence would allow — we simulate by deregistering behind the
// agent's back), the next heartbeat's 404 must trigger re-registration
// under a bumped epoch.
func TestAgentReregistersAfterLeaseLoss(t *testing.T) {
	c := newCoordStub(t, 300*time.Millisecond)
	a, err := StartAgent(AgentOptions{
		Coordinator: c.srv.URL, Advertise: "http://worker:8081", Capacity: 1, Log: testLog(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	waitFor(t, "registration", func() bool { return len(c.reg.Snapshot().Members) == 1 })
	_, epoch1 := a.Identity()

	// Kill the lease out from under the agent.
	id, _ := a.Identity()
	if err := c.reg.Deregister(id); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "re-registration with bumped epoch", func() bool {
		mem := c.reg.Snapshot().Members
		return len(mem) == 1 && mem[0].Epoch > epoch1
	})
}

// TestAgentRetriesUnreachableCoordinator: an agent started against a
// dead coordinator keeps retrying and joins once it comes up.
func TestAgentRetriesUnreachableCoordinator(t *testing.T) {
	c := newCoordStub(t, 10*time.Second)
	addr := c.srv.Listener.Addr().String()
	c.srv.Close() // coordinator down

	a, err := StartAgent(AgentOptions{
		Coordinator: "http://" + addr, Advertise: "http://worker:8081", Capacity: 1,
	})
	if err != nil {
		t.Fatalf("StartAgent should not fail on unreachable coordinator: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // a failed attempt or two
	a.Close()
}

func TestStartAgentValidates(t *testing.T) {
	if _, err := StartAgent(AgentOptions{Coordinator: "http://c", Advertise: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Fatalf("bad advertise accepted: %v", err)
	}
	if _, err := StartAgent(AgentOptions{Coordinator: "", Advertise: "http://w:1"}); err == nil {
		t.Fatal("empty coordinator accepted")
	}
}
