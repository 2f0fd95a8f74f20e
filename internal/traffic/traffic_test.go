package traffic

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func validSpec() string {
	return `{
	  "name": "t", "duration_s": 1, "seed": 7,
	  "clients": [
	    {"id": "readers", "op": "results", "rate": 50, "concurrency": 2,
	     "arrival": "poisson", "params": {"limit": "10"},
	     "slo": {"p50_ms": 5, "p99_ms": 50}, "min_rps": 10},
	    {"id": "resubmits", "op": "sweep", "rate": 2, "wait": true,
	     "sweep": {"apps": ["mcf"], "schemes": ["whirlpool"]}},
	    {"id": "pollers", "op": "jobs", "rate": 20, "arrival": "bursty",
	     "burst": {"size": 5}}
	  ]
	}`
}

func TestParseValidSpec(t *testing.T) {
	s, err := Parse([]byte(validSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Clients) != 3 || s.Seed != 7 || s.Name != "t" {
		t.Fatalf("spec = %+v", s)
	}
	if s.Duration(0) != time.Second {
		t.Fatalf("Duration = %v, want 1s", s.Duration(0))
	}
	if s.Duration(3*time.Second) != 3*time.Second {
		t.Fatal("override ignored")
	}
}

// TestSpecValidationErrors: every malformed spec fails with a message
// naming the offending client and field.
func TestSpecValidationErrors(t *testing.T) {
	mutate := func(f func(*Spec)) *Spec {
		var s Spec
		if err := json.Unmarshal([]byte(validSpec()), &s); err != nil {
			t.Fatal(err)
		}
		f(&s)
		return &s
	}
	cases := []struct {
		name string
		s    *Spec
		want string
	}{
		{"no clients", mutate(func(s *Spec) { s.Clients = nil }), "no clients"},
		{"negative duration", mutate(func(s *Spec) { s.DurationS = -1 }), "negative"},
		{"empty id", mutate(func(s *Spec) { s.Clients[0].ID = "" }), "has no id"},
		{"duplicate id", mutate(func(s *Spec) { s.Clients[1].ID = "readers" }), "duplicate client id"},
		{"missing op", mutate(func(s *Spec) { s.Clients[0].Op = "" }), "missing op"},
		{"unknown op", mutate(func(s *Spec) { s.Clients[0].Op = "delete-everything" }), "unknown op"},
		{"zero rate", mutate(func(s *Spec) { s.Clients[0].Rate = 0 }), "rate must be positive"},
		{"negative rate", mutate(func(s *Spec) { s.Clients[0].Rate = -3 }), "rate must be positive"},
		{"rate past 1/ns", mutate(func(s *Spec) { s.Clients[0].Rate = 2e9 }), "at most 1e+09"},
		{"duration past time.Duration", mutate(func(s *Spec) { s.DurationS = 1e300 }), "too long"},
		{"negative concurrency", mutate(func(s *Spec) { s.Clients[0].Concurrency = -1 }), "concurrency"},
		{"unknown arrival", mutate(func(s *Spec) { s.Clients[0].Arrival = "fractal" }), "unknown arrival"},
		{"bursty without burst", mutate(func(s *Spec) {
			s.Clients[2].Burst = nil
		}), "needs burst.size"},
		{"burst size zero", mutate(func(s *Spec) {
			s.Clients[2].Burst.Size = 0
		}), "needs burst.size"},
		{"burst on constant", mutate(func(s *Spec) {
			s.Clients[0].Arrival = ArrivalConstant
			s.Clients[0].Burst = &Burst{Size: 4}
		}), "burst only applies"},
		{"sweep without body", mutate(func(s *Spec) { s.Clients[1].Sweep = nil }), "needs a sweep body"},
		{"sweep body invalid", mutate(func(s *Spec) { s.Clients[1].Sweep = json.RawMessage("{nope") }), "not valid JSON"},
		{"sweep body on results", mutate(func(s *Spec) {
			s.Clients[0].Sweep = json.RawMessage("{}")
		}), "does not take a sweep body"},
		{"wait on jobs", mutate(func(s *Spec) { s.Clients[2].Wait = true }), "wait only applies"},
		{"params on jobs", mutate(func(s *Spec) {
			s.Clients[2].Params = map[string]string{"limit": "1"}
		}), "params only apply"},
		{"negative slo", mutate(func(s *Spec) { s.Clients[0].SLO.P50MS = -1 }), "non-negative"},
		{"non-monotone slo", mutate(func(s *Spec) {
			s.Clients[0].SLO = &SLO{P50MS: 50, P99MS: 5}
		}), "monotone"},
		{"negative min_rps", mutate(func(s *Spec) { s.Clients[0].MinRPS = -1 }), "min_rps"},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestParseRejectsUnknownFields: a typoed field is an error, not a
// silently ignored default.
func TestParseRejectsUnknownFields(t *testing.T) {
	bad := `{"clients": [{"id": "a", "op": "jobs", "rate": 1, "arival": "poisson"}]}`
	if _, err := Parse([]byte(bad)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestArrivalsDeterministic: equal (seed, class) produce the identical
// schedule; different class ids diverge.
func TestArrivalsDeterministic(t *testing.T) {
	c := &Client{ID: "readers", Op: OpResults, Rate: 100, Arrival: ArrivalPoisson}
	a1, a2 := newArrivals(7, c), newArrivals(7, c)
	for i := 0; i < 100; i++ {
		if x, y := a1.next(), a2.next(); x != y {
			t.Fatalf("arrival %d: %v != %v", i, x, y)
		}
	}
	other := &Client{ID: "pollers", Op: OpJobs, Rate: 100, Arrival: ArrivalPoisson}
	b := newArrivals(7, other)
	same := 0
	a3 := newArrivals(7, c)
	for i := 0; i < 100; i++ {
		if a3.next() == b.next() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("distinct classes shared %d/100 arrival offsets", same)
	}
}

// TestArrivalRates: over many arrivals every process realizes its
// configured average rate.
func TestArrivalRates(t *testing.T) {
	cases := []Client{
		{ID: "c", Rate: 200, Arrival: ArrivalConstant},
		{ID: "p", Rate: 200, Arrival: ArrivalPoisson},
		{ID: "b", Rate: 200, Arrival: ArrivalBursty, Burst: &Burst{Size: 10}},
	}
	for _, c := range cases {
		ar := newArrivals(42, &c)
		const n = 4000
		var last time.Duration
		for i := 0; i < n; i++ {
			last = ar.next()
		}
		got := float64(n) / last.Seconds()
		if got < c.Rate*0.9 || got > c.Rate*1.1 {
			t.Errorf("%s: realized %.1f req/s, want ~%g", c.Arrival, got, c.Rate)
		}
	}
}

// TestBurstyShape: bursty arrivals come in back-to-back groups of
// exactly Burst.Size sharing one offset.
func TestBurstyShape(t *testing.T) {
	c := &Client{ID: "b", Rate: 100, Arrival: ArrivalBursty, Burst: &Burst{Size: 4}}
	ar := newArrivals(1, c)
	offsets := make([]time.Duration, 12)
	for i := range offsets {
		offsets[i] = ar.next()
	}
	for g := 0; g < 3; g++ {
		base := offsets[g*4]
		for i := 1; i < 4; i++ {
			if offsets[g*4+i] != base {
				t.Fatalf("burst %d arrival %d at %v, want %v", g, i, offsets[g*4+i], base)
			}
		}
		if g > 0 && base <= offsets[g*4-1] {
			t.Fatalf("burst %d does not advance past previous burst", g)
		}
	}
}

// TestJudge: SLO and floor comparisons produce one violation line per
// breached target, and pass when met.
func TestJudge(t *testing.T) {
	cr := &ClassReport{
		ID: "r", OK: 100, Sent: 100, RPS: 50,
		P50MS: 10, P95MS: 40, P99MS: 90,
		SLO: &SLO{P50MS: 5, P95MS: 50, P99MS: 80}, MinRPS: 60,
	}
	v := judge(cr)
	if len(v) != 3 {
		t.Fatalf("violations = %v, want p50 + p99 + floor", v)
	}
	for _, want := range []string{"p50", "p99", "below floor"} {
		found := false
		for _, line := range v {
			if strings.Contains(line, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no violation mentions %q: %v", want, v)
		}
	}

	pass := &ClassReport{ID: "r", OK: 10, Sent: 10, RPS: 100, P50MS: 1, P99MS: 2,
		SLO: &SLO{P50MS: 5, P99MS: 80}, MinRPS: 60}
	if v := judge(pass); len(v) != 0 {
		t.Fatalf("passing class judged %v", v)
	}

	// A class whose every request failed cannot silently "pass" its SLO.
	dead := &ClassReport{ID: "r", OK: 0, Sent: 10, SLO: &SLO{P99MS: 80}}
	if v := judge(dead); len(v) != 1 || !strings.Contains(v[0], "no successful requests") {
		t.Fatalf("dead class judged %v", v)
	}
}
