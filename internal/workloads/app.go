// Package workloads synthesizes the paper's benchmark suite. Each app is a
// set of data structures (allocated from the simulated pool allocator,
// tagged with per-structure callpoints) plus a deterministic access-stream
// generator reproducing the documented pool structure: sizes, access
// splits, reuse patterns, and phase behaviour (Table 2, Figs 2, 6, 8, 9,
// 11). See docs/design.md for why this substitution preserves the experiments.
package workloads

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"

	"whirlpool/internal/addr"
	"whirlpool/internal/mem"
	"whirlpool/internal/stats"
	"whirlpool/internal/trace"
)

// Pattern selects a structure's reference pattern.
type Pattern int

// Reference patterns.
const (
	// Inherit keeps the structure's default pattern (phase overrides).
	Inherit Pattern = iota
	// Seq streams sequentially through the structure, wrapping.
	Seq
	// Rand touches uniform random lines.
	Rand
	// Zipf touches lines with Zipfian popularity (Param = exponent).
	Zipf
	// Chase walks a fixed pseudo-random permutation (pointer chasing).
	Chase
	// WSLoop loops sequentially over the first Param fraction of lines.
	WSLoop
	// RandWS touches uniform random lines within the first Param fraction.
	RandWS
)

// patternTable spells each pattern's spec-file name, indexed by Pattern.
// String, text (JSON) marshalling and the "valid: …" error list all read
// it.
var patternTable = [...]string{
	Inherit: "inherit",
	Seq:     "seq",
	Rand:    "rand",
	Zipf:    "zipf",
	Chase:   "chase",
	WSLoop:  "wsloop",
	RandWS:  "randws",
}

// String names the pattern.
func (p Pattern) String() string {
	if p < 0 || int(p) >= len(patternTable) {
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
	return patternTable[p]
}

// StructPatterns lists the patterns a structure may declare (all but
// Inherit), comma-separated, for error messages.
func StructPatterns() string { return strings.Join(patternTable[Seq:], ", ") }

// MarshalText encodes the pattern as its name.
func (p Pattern) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText decodes a pattern name. It accepts "inherit", which only
// phase overrides may use; spec validation rejects it for structures.
func (p *Pattern) UnmarshalText(b []byte) error {
	for i, name := range patternTable {
		if string(b) == name {
			*p = Pattern(i)
			return nil
		}
	}
	return fmt.Errorf("unknown pattern %q (valid: %s)", b, StructPatterns())
}

// ByteSize is a byte count. In JSON it reads either a number or a string
// with a B/KB/MB/GB suffix ("96MB", "512 KB"), and writes the most
// compact exact suffix form.
type ByteSize uint64

var sizeRe = regexp.MustCompile(`^([0-9]+(?:\.[0-9]+)?)\s*([KMGkmg]?)[Bb]?$`)

// UnmarshalJSON implements json.Unmarshaler.
func (b *ByteSize) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		m := sizeRe.FindStringSubmatch(strings.TrimSpace(s))
		if m == nil {
			return fmt.Errorf("bad size %q (want e.g. 4194304, \"4MB\", \"512KB\")", s)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return fmt.Errorf("bad size %q: %v", s, err)
		}
		switch strings.ToUpper(m[2]) {
		case "K":
			v *= addr.KB
		case "M":
			v *= addr.MB
		case "G":
			v *= addr.MB * 1024
		}
		if v >= math.MaxUint64 {
			return fmt.Errorf("bad size %q: does not fit 64 bits", s)
		}
		*b = ByteSize(v)
		return nil
	}
	var n uint64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("bad size %s (want a byte count or a \"4MB\"-style string)", data)
	}
	*b = ByteSize(n)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (b ByteSize) MarshalJSON() ([]byte, error) {
	n, unit := uint64(b), ""
	switch {
	case n >= addr.MB && n%addr.MB == 0:
		n, unit = n/addr.MB, "MB"
	case n >= addr.KB && n%addr.KB == 0:
		n, unit = n/addr.KB, "KB"
	default:
		return strconv.AppendUint(nil, n, 10), nil
	}
	return []byte(`"` + strconv.FormatUint(n, 10) + unit + `"`), nil
}

// StructSpec describes one program data structure.
type StructSpec struct {
	Name      string   `json:"name"`
	Bytes     ByteSize `json:"bytes"`
	Pattern   Pattern  `json:"pattern"`
	Param     float64  `json:"param,omitempty"`      // Zipf exponent or WS fraction
	WriteFrac float64  `json:"write_frac,omitempty"` // fraction of accesses that are stores
}

// PhaseSpec describes one phase of execution. Phases cycle.
type PhaseSpec struct {
	// Len is the relative length of this phase within one period.
	Len float64 `json:"len"`
	// Weights gives each structure's share of accesses in this phase.
	Weights []float64 `json:"weights"`
	// Patterns optionally overrides per-structure patterns (Inherit keeps
	// the default). Nil means no overrides.
	Patterns []Pattern `json:"patterns,omitempty"`
	// Params optionally overrides per-structure pattern params (0 keeps
	// the default). Nil means no overrides.
	Params []float64 `json:"params,omitempty"`
}

// AppSpec is the complete static description of a synthetic benchmark.
// Its JSON form is the spec-file schema (docs/workload-specs.md):
// internal/spec decodes files straight into it.
type AppSpec struct {
	Name string `json:"name"`
	// Source is the spec file's "source": "" (or "synthetic") for a
	// generated app, "trace" for one replayed from TracePath. Spec
	// validation keeps the two consistent; the simulator reads TracePath.
	Source  string       `json:"source,omitempty"`
	Suite   string       `json:"suite,omitempty"` // "spec" or "pbbs"
	Structs []StructSpec `json:"structs,omitempty"`
	Phases  []PhaseSpec  `json:"phases,omitempty"`
	// PeriodFrac is the fraction of the run one full phase cycle takes
	// (1.0 = phases run once; 0.2 = the cycle repeats 5 times).
	PeriodFrac float64 `json:"period_frac,omitempty"`
	// PhaseJitter randomizes phase instance lengths by ±jitter fraction
	// (refine's irregular phase changes).
	PhaseJitter float64 `json:"phase_jitter,omitempty"`
	// APKI is the raw (L1-level) line-touch rate per kilo-instruction.
	APKI float64 `json:"apki,omitempty"`
	// Accesses is the default raw line-touch count at scale 1.0.
	Accesses uint64 `json:"accesses,omitempty"`
	// ManualPools groups structure indices into the paper's manual pools
	// (Table 2). Structures absent from every group go to the default
	// pool.
	ManualPools [][]int `json:"manual_pools,omitempty"`
	// ManualLOC is the paper-reported lines of code changed (Table 2);
	// zero for apps the paper did not port manually.
	ManualLOC int `json:"manual_loc,omitempty"`
	// TracePath marks a trace-sourced app: instead of generating a
	// synthetic stream, the experiments harness replays the recorded
	// .wtrc file at this path (spec files with "source": "trace").
	// Trace-sourced apps have no structures; scale and seed are inert.
	TracePath string `json:"trace,omitempty"`
}

// Workload is a built app: structures allocated in a simulated address
// space, ready to generate access streams.
type Workload struct {
	Spec    AppSpec
	Space   *mem.Space
	Structs []StructAlloc
	// Total raw accesses this workload will generate.
	Accesses uint64
}

// StructAlloc records where a structure landed.
type StructAlloc struct {
	Spec  StructSpec
	Base  addr.Addr
	Lines uint64
	CP    mem.Callpoint
}

// Build allocates the app's structures. Each structure allocates from its
// own callpoint (callpoint id = structure index + 1), mirroring the
// paper's observation that semantically different data comes from
// different allocation sites. scale multiplies the access count (not the
// footprint).
func Build(spec AppSpec, scale float64) *Workload {
	sp := mem.NewSpace()
	w := &Workload{Spec: spec, Space: sp}
	for i, st := range spec.Structs {
		cp := mem.Callpoint(i + 1)
		base := sp.Malloc(uint64(st.Bytes), mem.DefaultPool, cp)
		w.Structs = append(w.Structs, StructAlloc{
			Spec:  st,
			Base:  base,
			Lines: addr.LinesFor(uint64(st.Bytes)),
			CP:    cp,
		})
	}
	w.Accesses = uint64(float64(spec.Accesses) * scale)
	if w.Accesses == 0 {
		w.Accesses = spec.Accesses
	}
	return w
}

// gen is the deterministic access-stream generator.
type gen struct {
	w   *Workload
	rng *stats.Rng

	remaining uint64
	gap       uint32

	// Per-structure pattern state.
	pos    []uint64 // sequential/chase positions
	stride []uint64 // chase strides (odd, structure-specific)

	// Phase state.
	phase      int
	phaseLeft  uint64
	phaseLens  []uint64 // accesses per phase instance (before jitter)
	cum        []float64
	curPattern []Pattern
	curParam   []float64
}

// Stream returns a fresh deterministic access stream for the workload.
// Streams with the same seed are identical. Trace-sourced workloads
// (AppSpec.TracePath) have no generator: their stream is empty, and the
// harness replays the recorded LLC trace instead. A synthetic spec
// without structs or phases is a construction error and still panics
// loudly rather than generating an empty (silently wrong) stream.
func (w *Workload) Stream(seed uint64) trace.Stream {
	if w.Spec.TracePath != "" {
		return &trace.SliceStream{}
	}
	g := &gen{
		w:         w,
		rng:       stats.NewRng(seed ^ stats.Hash64(hashName(w.Spec.Name))),
		remaining: w.Accesses,
	}
	g.gap = uint32(1000.0 / w.Spec.APKI)
	if g.gap == 0 {
		g.gap = 1
	}
	n := len(w.Structs)
	g.pos = make([]uint64, n)
	g.stride = make([]uint64, n)
	for i, st := range w.Structs {
		// A large odd stride coprime with the line count gives a fixed
		// pseudo-random full cycle for Chase.
		s := (stats.Hash64(uint64(i)+seed) | 1) % st.Lines
		if s < 2 {
			s = 3
		}
		for gcd(s, st.Lines) != 1 {
			s += 2
			if s >= st.Lines {
				// Wrap to 3, or to 2 for a three-line structure: it has
				// no odd stride in [3, lines), so wrapping to 3 would
				// spin forever.
				s = min(3, st.Lines-1)
			}
		}
		g.stride[i] = s
	}
	// Phase lengths.
	period := w.Spec.PeriodFrac
	if period <= 0 || period > 1 {
		period = 1
	}
	total := float64(w.Accesses) * period
	var sumLen float64
	for _, p := range w.Spec.Phases {
		sumLen += p.Len
	}
	for _, p := range w.Spec.Phases {
		g.phaseLens = append(g.phaseLens, uint64(total*p.Len/sumLen))
	}
	g.curPattern = make([]Pattern, n)
	g.curParam = make([]float64, n)
	g.cum = make([]float64, n)
	g.enterPhase(0)
	return g
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *gen) enterPhase(i int) {
	g.phase = i
	ph := g.w.Spec.Phases[i]
	g.phaseLeft = g.phaseLens[i]
	if g.w.Spec.PhaseJitter > 0 {
		j := 1 + g.w.Spec.PhaseJitter*(2*g.rng.Float64()-1)
		g.phaseLeft = uint64(float64(g.phaseLeft) * j)
		if g.phaseLeft == 0 {
			g.phaseLeft = 1
		}
	}
	// Cumulative weights for structure selection.
	sum := 0.0
	for _, w := range ph.Weights {
		sum += w
	}
	acc := 0.0
	for s := range g.w.Structs {
		wgt := 0.0
		if s < len(ph.Weights) {
			wgt = ph.Weights[s]
		}
		acc += wgt / sum
		g.cum[s] = acc
		g.curPattern[s] = g.w.Structs[s].Spec.Pattern
		g.curParam[s] = g.w.Structs[s].Spec.Param
		if ph.Patterns != nil && s < len(ph.Patterns) && ph.Patterns[s] != Inherit {
			g.curPattern[s] = ph.Patterns[s]
		}
		if ph.Params != nil && s < len(ph.Params) && ph.Params[s] != 0 {
			g.curParam[s] = ph.Params[s]
		}
	}
}

// Next implements trace.Stream.
func (g *gen) Next() (trace.Access, bool) {
	if g.remaining == 0 {
		return trace.Access{}, false
	}
	g.remaining--
	if g.phaseLeft == 0 {
		g.enterPhase((g.phase + 1) % len(g.w.Spec.Phases))
	}
	g.phaseLeft--

	// Pick a structure by phase weights.
	u := g.rng.Float64()
	s := 0
	for s < len(g.cum)-1 && u > g.cum[s] {
		s++
	}
	st := &g.w.Structs[s]
	lines := st.Lines
	var off uint64
	switch g.curPattern[s] {
	case Seq:
		off = g.pos[s]
		g.pos[s]++
		if g.pos[s] >= lines {
			g.pos[s] = 0
		}
	case Rand:
		off = g.rng.Uint64n(lines)
	case Zipf:
		off = uint64(g.rng.Zipf(int(lines), g.curParam[s]))
	case Chase:
		g.pos[s] = (g.pos[s] + g.stride[s]) % lines
		off = g.pos[s]
	case WSLoop:
		ws := uint64(float64(lines) * g.curParam[s])
		if ws == 0 {
			ws = 1
		}
		if g.pos[s] >= ws {
			g.pos[s] = 0
		}
		off = g.pos[s]
		g.pos[s]++
	case RandWS:
		ws := uint64(float64(lines) * g.curParam[s])
		if ws == 0 {
			ws = 1
		}
		off = g.rng.Uint64n(ws)
	default:
		off = g.rng.Uint64n(lines)
	}
	line := addr.LineOf(st.Base) + addr.Line(off)
	write := g.rng.Float64() < st.Spec.WriteFrac
	return trace.Access{Line: line, Write: write, Gap: g.gap}, true
}

// CallpointPools maps each structure's callpoint to a pool id according to
// grouping (a list of structure-index groups), as a dense table indexed by
// callpoint. Group i maps to pool i+1; ungrouped structures map to the
// default pool. This is how a classification (manual or WhirlTool) is
// applied to a trace.
func (w *Workload) CallpointPools(grouping [][]int) []mem.PoolID {
	var top mem.Callpoint
	for _, st := range w.Structs {
		top = max(top, st.CP)
	}
	m := make([]mem.PoolID, top+1)
	for gi, group := range grouping {
		for _, si := range group {
			if si < 0 || si >= len(w.Structs) {
				panic(fmt.Sprintf("workloads: bad struct index %d in grouping", si))
			}
			m[w.Structs[si].CP] = mem.PoolID(gi + 1)
		}
	}
	return m
}

// ManualGrouping returns the paper's manual pool classification (Table 2),
// or a single all-structures pool if the app was not manually ported.
func (w *Workload) ManualGrouping() [][]int {
	if len(w.Spec.ManualPools) > 0 {
		return w.Spec.ManualPools
	}
	all := make([]int, len(w.Structs))
	for i := range all {
		all[i] = i
	}
	return [][]int{all}
}

// NumPoolsManual returns the number of manual pools (Table 2).
func (w *Workload) NumPoolsManual() int { return len(w.Spec.ManualPools) }
