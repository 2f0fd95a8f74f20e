// Package traffic is whirlload's engine: declarative traffic specs
// that drive a whirld daemon with a reproducible open-loop workload and
// judge the observed latencies against per-class SLOs.
//
// A traffic spec is a JSON document (the shape mirrors the repo's
// workload-spec files: a named document with a list of named parts):
//
//	{
//	  "name": "warm-mixed",
//	  "duration_s": 10,
//	  "seed": 42,
//	  "clients": [
//	    {"id": "readers", "op": "results", "rate": 200, "concurrency": 4,
//	     "arrival": "poisson", "params": {"limit": "50"},
//	     "slo": {"p50_ms": 5, "p99_ms": 50}, "min_rps": 150},
//	    {"id": "resubmits", "op": "sweep", "rate": 2, "concurrency": 2,
//	     "arrival": "constant", "wait": true,
//	     "sweep": {"apps": ["mcf"], "schemes": ["whirlpool"]}}
//	  ]
//	}
//
// Each client class is an independent open-loop arrival process
// (constant, poisson, or bursty) generated from the spec's seed via the
// repo's deterministic PRNG — the same spec and seed produce the same
// request schedule, so a regression in a latency report is a server
// regression, not generator noise.
package traffic

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// Op names the request a client class issues.
type Op string

const (
	// OpResults GETs /v1/results with the class's query params — the
	// warm row-serving path.
	OpResults Op = "results"
	// OpSweep POSTs the class's SweepRequest body to /v1/sweeps (a warm
	// resubmit when the store already holds the grid); with Wait set the
	// latency spans submit → job completion.
	OpSweep Op = "sweep"
	// OpJobs GETs /v1/jobs — the cheap poll every dashboard hammers.
	OpJobs Op = "jobs"
)

// Arrival names a client class's inter-arrival process.
type Arrival string

const (
	// ArrivalConstant spaces requests exactly 1/rate apart.
	ArrivalConstant Arrival = "constant"
	// ArrivalPoisson draws exponential inter-arrival gaps (mean 1/rate) —
	// memoryless open-loop load, the usual serving-benchmark default.
	ArrivalPoisson Arrival = "poisson"
	// ArrivalBursty emits back-to-back groups of Burst.Size requests,
	// idling between groups so the long-run average still meets rate.
	ArrivalBursty Arrival = "bursty"
)

// SLO is a class's latency objective in milliseconds; zero fields are
// unchecked.
type SLO struct {
	P50MS float64 `json:"p50_ms,omitempty"`
	P95MS float64 `json:"p95_ms,omitempty"`
	P99MS float64 `json:"p99_ms,omitempty"`
}

// Burst parameterizes the bursty arrival process.
type Burst struct {
	// Size is the number of back-to-back requests per burst.
	Size int `json:"size"`
}

// Client is one request class: an arrival process, a request shape, and
// the objectives its latencies are judged against.
type Client struct {
	// ID names the class in reports and metrics; unique within a spec.
	ID string `json:"id"`
	// Op selects the request (results | sweep | jobs).
	Op Op `json:"op"`
	// Rate is the class's open-loop target in requests/second.
	Rate float64 `json:"rate"`
	// Concurrency is the number of in-flight requests the class may have
	// (its worker count); 0 means 1.
	Concurrency int `json:"concurrency,omitempty"`
	// Arrival selects the inter-arrival process; empty means constant.
	Arrival Arrival `json:"arrival,omitempty"`
	// Burst parameterizes the bursty process (required for it).
	Burst *Burst `json:"burst,omitempty"`
	// Params are extra query parameters for OpResults (app, scheme, key,
	// limit).
	Params map[string]string `json:"params,omitempty"`
	// Sweep is the verbatim POST /v1/sweeps body for OpSweep.
	Sweep json.RawMessage `json:"sweep,omitempty"`
	// Wait (OpSweep only) extends the measured latency until the
	// submitted job reaches a terminal state — "a warm resubmit is
	// answered from the store within the SLO" becomes checkable.
	Wait bool `json:"wait,omitempty"`
	// SLO are the class's latency targets; nil means unchecked.
	SLO *SLO `json:"slo,omitempty"`
	// MinRPS fails the run when the achieved completion rate (excluding
	// shed and errored requests) lands below it; 0 means unchecked.
	MinRPS float64 `json:"min_rps,omitempty"`
}

// Spec is a whole traffic document.
type Spec struct {
	// Name labels the run in reports.
	Name string `json:"name,omitempty"`
	// DurationS is the run length in seconds (the -duration flag
	// overrides it).
	DurationS float64 `json:"duration_s,omitempty"`
	// Seed drives every arrival process; runs with equal specs and seeds
	// issue identical request schedules.
	Seed uint64 `json:"seed,omitempty"`
	// Clients are the request classes, all driven concurrently.
	Clients []Client `json:"clients"`
}

// Load reads and validates a traffic spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("traffic: %v", err)
	}
	return Parse(data)
}

// Parse decodes and validates a traffic spec. Unknown fields are
// rejected: a typoed "arival" must fail loudly, not silently default.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("traffic: parsing spec: %v", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// maxRate is one request per nanosecond, the schedule's resolution: a
// faster class would issue every request at one offset.
const maxRate = 1e9

// Validate checks the spec's internal consistency.
func (s *Spec) Validate() error {
	if len(s.Clients) == 0 {
		return fmt.Errorf("traffic: spec has no clients")
	}
	if s.DurationS < 0 {
		return fmt.Errorf("traffic: duration_s %g is negative", s.DurationS)
	}
	if s.DurationS*float64(time.Second) >= math.MaxInt64 {
		return fmt.Errorf("traffic: duration_s %g is too long", s.DurationS)
	}
	seen := map[string]bool{}
	for i := range s.Clients {
		c := &s.Clients[i]
		at := fmt.Sprintf("client %d (%q)", i, c.ID)
		if c.ID == "" {
			return fmt.Errorf("traffic: client %d has no id", i)
		}
		if seen[c.ID] {
			return fmt.Errorf("traffic: duplicate client id %q", c.ID)
		}
		seen[c.ID] = true
		switch c.Op {
		case OpResults, OpJobs:
			if len(c.Sweep) > 0 {
				return fmt.Errorf("traffic: %s: op %q does not take a sweep body", at, c.Op)
			}
			if c.Wait {
				return fmt.Errorf("traffic: %s: wait only applies to op %q", at, OpSweep)
			}
		case OpSweep:
			if len(c.Sweep) == 0 {
				return fmt.Errorf("traffic: %s: op %q needs a sweep body", at, c.Op)
			}
			if !json.Valid(c.Sweep) {
				return fmt.Errorf("traffic: %s: sweep body is not valid JSON", at)
			}
		case "":
			return fmt.Errorf("traffic: %s: missing op (valid: results, sweep, jobs)", at)
		default:
			return fmt.Errorf("traffic: %s: unknown op %q (valid: results, sweep, jobs)", at, c.Op)
		}
		if c.Op != OpResults && len(c.Params) > 0 {
			return fmt.Errorf("traffic: %s: params only apply to op %q", at, OpResults)
		}
		if c.Rate <= 0 || c.Rate > maxRate {
			return fmt.Errorf("traffic: %s: rate must be positive and at most %g (got %g)", at, maxRate, c.Rate)
		}
		if c.Concurrency < 0 {
			return fmt.Errorf("traffic: %s: concurrency %d is negative", at, c.Concurrency)
		}
		switch c.Arrival {
		case "", ArrivalConstant, ArrivalPoisson:
			if c.Burst != nil {
				return fmt.Errorf("traffic: %s: burst only applies to arrival %q", at, ArrivalBursty)
			}
		case ArrivalBursty:
			if c.Burst == nil || c.Burst.Size <= 0 {
				return fmt.Errorf("traffic: %s: arrival %q needs burst.size > 0", at, ArrivalBursty)
			}
		default:
			return fmt.Errorf("traffic: %s: unknown arrival %q (valid: constant, poisson, bursty)", at, c.Arrival)
		}
		if c.SLO != nil {
			if c.SLO.P50MS < 0 || c.SLO.P95MS < 0 || c.SLO.P99MS < 0 {
				return fmt.Errorf("traffic: %s: slo targets must be non-negative", at)
			}
			// Where multiple targets are set they must be achievable
			// together: quantiles are monotone in q.
			prev, prevName := 0.0, ""
			for _, t := range []struct {
				v    float64
				name string
			}{{c.SLO.P50MS, "p50_ms"}, {c.SLO.P95MS, "p95_ms"}, {c.SLO.P99MS, "p99_ms"}} {
				if t.v == 0 {
					continue
				}
				if prev > t.v {
					return fmt.Errorf("traffic: %s: slo %s (%g) below %s (%g) — quantiles are monotone", at, t.name, t.v, prevName, prev)
				}
				prev, prevName = t.v, t.name
			}
		}
		if c.MinRPS < 0 {
			return fmt.Errorf("traffic: %s: min_rps %g is negative", at, c.MinRPS)
		}
	}
	return nil
}

// Duration resolves the run length: the override when positive, else
// the spec's duration_s, else a 10s default.
func (s *Spec) Duration(override time.Duration) time.Duration {
	if override > 0 {
		return override
	}
	if s.DurationS > 0 {
		return time.Duration(s.DurationS * float64(time.Second))
	}
	return 10 * time.Second
}
