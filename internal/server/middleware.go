package server

import (
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"whirlpool/internal/obs"
)

// endpoint is the per-route serving state: a latency histogram, an
// in-flight gauge, and the concurrency limit that sheds load when the
// route is overdriven. One endpoint may cover several routes (all the
// /v1/jobs reads are one "jobs" endpoint).
type endpoint struct {
	name string
	// spanName is the request span's name ("http." + name), precomputed
	// so span emission never concatenates on the request path.
	spanName string
	limit    int64 // 0 = unlimited
	inflight atomic.Int64
	requests atomic.Int64
	shed     atomic.Int64
	hist     latHist
}

// defaultLimits are the per-endpoint concurrency caps. The point is
// isolation, not throttling: each cap is far above a healthy endpoint's
// concurrency, so shedding only starts when one request class is
// overdriven — and the other endpoints, each behind their own cap,
// keep serving. 0 means unlimited (health and metrics must stay
// reachable precisely when everything else is shedding).
var defaultLimits = map[string]int{
	"sweeps":  16,
	"cells":   16,
	"jobs":    256,
	"stream":  128,
	"rows":    64,
	"trace":   64,
	"results": 256,
	"workers": 256,
	"healthz": 0,
	"metrics": 0,
}

// EndpointNames returns the daemon's endpoint names, sorted — the valid
// keys for Config.EndpointLimits (and whirld's -inflight flag).
func EndpointNames() []string {
	names := make([]string, 0, len(defaultLimits))
	for name := range defaultLimits {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// newEndpoint builds (or, for routes sharing a name, reuses) one
// endpoint, applying the Config override when present (negative
// overrides mean unlimited).
func (s *Server) newEndpoint(name string) *endpoint {
	for _, ep := range s.endpoints {
		if ep.name == name {
			return ep
		}
	}
	limit, ok := s.cfg.EndpointLimits[name]
	if !ok {
		limit = defaultLimits[name]
	}
	if limit < 0 {
		limit = 0
	}
	ep := &endpoint{name: name, limit: int64(limit), spanName: "http." + name}
	s.endpoints = append(s.endpoints, ep)
	return ep
}

// route registers pattern on the mux wrapped in the endpoint's
// instrumentation: admission first (shed with 429 + Retry-After beyond
// the concurrency limit), then latency measurement into the histogram
// and a request span into the tracer.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.instrument(s.newEndpoint(name), false, h))
}

// routeTraced is route plus span-context injection: the handler's
// request context carries the request span (obs.FromContext), so jobs
// built there inherit the caller's trace. Injection costs ~3 small
// allocations per request (context.WithValue + Request.WithContext),
// which is why it is opt-in per route instead of universal — the warm
// /v1/results path must stay allocation-free.
func (s *Server) routeTraced(pattern, name string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.instrument(s.newEndpoint(name), true, h))
}

// instrument wraps h in ep's admission control, latency accounting,
// and per-request span. The span honors an inbound W3C traceparent
// header (joining the caller's trace); a malformed or absent header
// starts a fresh root. Split out from route so tests can measure the
// wrapper's allocation cost directly.
func (s *Server) instrument(ep *endpoint, injectCtx bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ep.requests.Add(1)
		if ep.limit > 0 {
			if ep.inflight.Add(1) > ep.limit {
				ep.inflight.Add(-1)
				ep.shed.Add(1)
				s.metrics.shed.Add(1)
				httpErrRetry(w, http.StatusTooManyRequests, 1, "overloaded",
					"%s is at its concurrency limit (%d in flight); retry later", ep.name, ep.limit)
				return
			}
			defer ep.inflight.Add(-1)
		}
		// "Traceparent" (pre-canonicalized) keeps Header.Get from
		// re-canonicalizing — and allocating — on every request.
		parent, _ := obs.ParseTraceparent(r.Header.Get("Traceparent"))
		sp := s.tracer.Start(parent, ep.spanName)
		sp.SetStr("path", r.URL.Path)
		if injectCtx {
			r = r.WithContext(obs.NewContext(r.Context(), sp.Context()))
		}
		start := time.Now()
		h(w, r)
		lat := time.Since(start)
		ep.hist.observe(lat.Microseconds())
		sp.EndDuration(lat)
	}
}

// endpointsByName returns the endpoints sorted by name for stable
// /metrics output.
func (s *Server) endpointsByName() []*endpoint {
	eps := append([]*endpoint(nil), s.endpoints...)
	sort.Slice(eps, func(i, j int) bool { return eps[i].name < eps[j].name })
	return eps
}
