// Package obs is whirlpool's dependency-free observability layer: spans
// with trace/parent links for cross-node sweep tracing, a bounded
// in-memory ring of finished spans, W3C traceparent propagation, and a
// slog handler that keeps the daemon's traditional "prefix: message
// key=val" output shape.
//
// The layer is built to be free on the hot path: spans are pooled,
// attributes live in a fixed-size array inside the span, and finishing
// a span copies it by value into a preallocated ring. Emitting a span
// with a handful of attributes performs zero heap allocations, and
// every method on a nil *Tracer or nil *Span is a safe no-op, so
// callers thread tracers through without guarding call sites.
package obs

import (
	"context"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end operation (e.g. a sweep job across
// the fleet). Zero means "absent".
type TraceID [16]byte

// SpanID identifies one span within a trace. Zero means "absent".
type SpanID [8]byte

const hexDigits = "0123456789abcdef"

//whirl:zeroalloc
func appendHex(dst []byte, src []byte) []byte {
	for _, b := range src {
		dst = append(dst, hexDigits[b>>4], hexDigits[b&0xf])
	}
	return dst
}

// String renders the trace ID as 32 lowercase hex digits.
func (t TraceID) String() string {
	var buf [32]byte
	appendHex(buf[:0], t[:])
	return string(buf[:])
}

// IsZero reports whether the trace ID is absent.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the span ID as 16 lowercase hex digits.
func (s SpanID) String() string {
	var buf [16]byte
	appendHex(buf[:0], s[:])
	return string(buf[:])
}

// IsZero reports whether the span ID is absent.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// newTraceID returns a random non-zero trace ID. math/rand/v2's global
// generator is allocation-free and per-CPU sharded; span IDs need
// uniqueness, not unpredictability.
func newTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		putU64(t[:8], a)
		putU64(t[8:], b)
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		putU64(s[:], rand.Uint64())
	}
	return s
}

func putU64(dst []byte, v uint64) {
	_ = dst[7]
	dst[0] = byte(v >> 56)
	dst[1] = byte(v >> 48)
	dst[2] = byte(v >> 40)
	dst[3] = byte(v >> 32)
	dst[4] = byte(v >> 24)
	dst[5] = byte(v >> 16)
	dst[6] = byte(v >> 8)
	dst[7] = byte(v)
}

// SpanContext is the propagated identity of a span: enough to parent a
// child anywhere in the fleet, and exactly what a traceparent header
// carries.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

type ctxKey struct{}

// NewContext returns ctx carrying sc, for cross-layer (and, via
// traceparent injection, cross-node) propagation.
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts the span context placed by NewContext, if any.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// attrKind discriminates the typed attribute payload.
type attrKind uint8

const (
	attrNone attrKind = iota
	attrStr
	attrInt
	attrBool
)

// Attr is one typed key/value pair on a span. Values are stored
// unboxed so setting an attribute never allocates.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  int64
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, kind: attrStr, str: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, kind: attrInt, num: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr {
	n := int64(0)
	if v {
		n = 1
	}
	return Attr{Key: k, kind: attrBool, num: n}
}

// IsStr reports whether the attribute holds a string, returning it.
func (a Attr) IsStr() (string, bool) { return a.str, a.kind == attrStr }

// IsInt reports whether the attribute holds an integer, returning it.
func (a Attr) IsInt() (int64, bool) { return a.num, a.kind == attrInt }

// IsBool reports whether the attribute holds a bool, returning it.
func (a Attr) IsBool() (bool, bool) { return a.num != 0, a.kind == attrBool }

// Value returns the attribute's payload as an any (allocates; use the
// typed accessors on hot paths).
func (a Attr) Value() any {
	switch a.kind {
	case attrStr:
		return a.str
	case attrInt:
		return a.num
	case attrBool:
		return a.num != 0
	}
	return nil
}

// maxAttrs bounds per-span attributes so spans stay fixed-size and
// pool-friendly. Extra Set calls beyond the cap are dropped.
const maxAttrs = 8

// Span is one timed operation. Start carries Go's monotonic clock
// reading, so Dur is immune to wall-clock steps; StartWall (unix
// microseconds) is what serializes, for cross-node alignment.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Name   string
	Start  time.Time
	Dur    time.Duration

	nattrs int
	attrs  [maxAttrs]Attr
	tracer *Tracer
}

// Context returns the span's propagatable identity.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.Trace, Span: s.ID}
}

// Set appends a typed attribute, dropping it if the span is nil or the
// fixed attribute array is full. Returns s for chaining.
//
//whirl:zeroalloc
func (s *Span) Set(a Attr) *Span {
	if s == nil || s.nattrs >= maxAttrs {
		return s
	}
	s.attrs[s.nattrs] = a
	s.nattrs++
	return s
}

// SetStr, SetInt, SetBool are convenience wrappers over Set.
func (s *Span) SetStr(k, v string) *Span       { return s.Set(Str(k, v)) }
func (s *Span) SetInt(k string, v int64) *Span { return s.Set(Int(k, v)) }
func (s *Span) SetBool(k string, v bool) *Span { return s.Set(Bool(k, v)) }

// Attrs returns the span's attributes (a view into the span; do not
// retain past the span's End).
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs[:s.nattrs]
}

// Attr looks up an attribute by key.
func (s *Span) Attr(key string) (Attr, bool) {
	if s == nil {
		return Attr{}, false
	}
	for i := 0; i < s.nattrs; i++ {
		if s.attrs[i].Key == key {
			return s.attrs[i], true
		}
	}
	return Attr{}, false
}

// End finishes the span with the current time and records it into the
// tracer's ring. The span is recycled: the caller must not touch it
// after End.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndDuration(time.Since(s.Start))
}

// EndDuration finishes the span with an explicit duration, for callers
// that already computed time.Since for their own bookkeeping.
//
//whirl:zeroalloc
func (s *Span) EndDuration(d time.Duration) {
	if s == nil {
		return
	}
	s.Dur = d
	t := s.tracer
	s.tracer = nil
	if t != nil {
		t.record(s)
	}
}

// Tracer collects finished spans in a bounded ring, newest overwriting
// oldest. The zero value is not usable; use New. A nil *Tracer is a
// valid no-op tracer.
type Tracer struct {
	total atomic.Uint64 // spans finished over the tracer's lifetime

	mu   sync.Mutex
	ring []Span
	next int  // next write index in ring
	full bool // ring has wrapped at least once

	pool sync.Pool
}

// DefaultRingSize is the span capacity used when New is given n <= 0:
// enough for several full sweeps of every builtin app x scheme.
const DefaultRingSize = 8192

// New returns a Tracer retaining the last n finished spans.
func New(n int) *Tracer {
	if n <= 0 {
		n = DefaultRingSize
	}
	t := &Tracer{ring: make([]Span, n)}
	t.pool.New = func() any { return new(Span) }
	return t
}

// Total returns the number of spans finished over the tracer's
// lifetime (including spans since evicted from the ring).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
}

// Start begins a span. A valid parent puts the span in the parent's
// trace; an invalid one starts a fresh trace with this span as root.
// The returned span comes from a pool — finish it with End exactly
// once, and do not retain it afterwards.
//
//whirl:zeroalloc
func (t *Tracer) Start(parent SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	s := t.pool.Get().(*Span)
	if parent.Valid() {
		s.Trace = parent.Trace
		s.Parent = parent.Span
	} else {
		s.Trace = newTraceID()
		s.Parent = SpanID{}
	}
	s.ID = newSpanID()
	s.Name = name
	s.Start = time.Now()
	s.Dur = 0
	s.nattrs = 0
	s.tracer = t
	return s
}

// record copies the finished span into the ring and returns it to the
// pool. Called from EndDuration.
//
//whirl:zeroalloc
func (t *Tracer) record(s *Span) {
	t.insert(s)
	s.Name = ""
	s.nattrs = 0
	t.pool.Put(s)
}

// Emit records an externally built span (e.g. one parsed from a
// worker's trace JSONL) directly into the ring. The span is copied.
func (t *Tracer) Emit(s Span) {
	if t == nil {
		return
	}
	s.tracer = nil
	t.insert(&s)
}

// insert copies s into the ring, overwriting the oldest span once the
// ring is full.
//
//whirl:zeroalloc
func (t *Tracer) insert(s *Span) {
	t.total.Add(1)
	t.mu.Lock()
	t.ring[t.next] = *s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Collect returns copies of every retained span of the given trace,
// sorted by start time (ties broken by name for determinism).
func (t *Tracer) Collect(trace TraceID) []Span {
	if t == nil || trace.IsZero() {
		return nil
	}
	t.mu.Lock()
	n := t.next
	if t.full {
		n = len(t.ring)
	}
	var out []Span
	for i := 0; i < n; i++ {
		if t.ring[i].Trace == trace {
			out = append(out, t.ring[i])
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Name < out[j].Name
	})
	return out
}
