// Package lint is whirlvet's analysis engine: a dependency-free (stdlib
// go/parser + go/ast + go/types + go/importer only) driver that loads
// every package in the module and runs repo-specific analyzers over the
// type-checked syntax. Each analyzer encodes an invariant the codebase
// documents but could not previously enforce — bit-identical sweep
// rows, zero-alloc hot paths, envelope-only API errors, grep-able log
// keys, mutex-guarded registries. See docs/lint.md for the catalog.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"maps"
	"regexp"
	"slices"
	"strings"
)

// An Analyzer checks one invariant. Run is invoked once per loaded
// package with a Pass scoped to that package.
type Analyzer struct {
	// Name is the stable identifier printed in diagnostics and by
	// whirlvet -list.
	Name string
	// Doc is the one-line description printed by whirlvet -list.
	Doc string
	// Match reports whether the analyzer applies to a package import
	// path; nil means every package. Fixture tests bypass Match and run
	// the analyzer directly.
	Match func(pkgPath string) bool
	// Run performs the check, reporting findings via pass.Reportf.
	Run func(pass *Pass)
}

// All returns the analyzer suite in its fixed reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		Zeroalloc,
		Envelope,
		Slogkeys,
		Registrylock,
	}
}

// A Diagnostic is one raw finding at a token position (resolved to a
// file:line:col Finding by the runner).
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// --- marker comments ---

// Marker kinds. Markers are magic comments of the form
//
//	//whirl:<kind> <reason>
//
// attached to the line they annotate (end-of-line) or to the line
// immediately above it. Kinds that suppress a finding require a
// non-empty reason; a reason-less marker suppresses nothing and is
// itself a finding.
const (
	// MarkWallclock allowlists an explicitly timing-only wall-clock or
	// global-PRNG site in the compute path (span durations, store
	// timestamps, retry jitter). Requires a reason.
	MarkWallclock = "wallclock"
	// MarkUnordered allowlists a map-range whose iteration order
	// provably cannot reach an output (e.g. keys are collected and
	// sorted before use). Requires a reason.
	MarkUnordered = "unordered"
	// MarkZeroalloc marks a function whose body must stay free of the
	// allocating constructs the zeroalloc analyzer checks. No reason
	// needed; the marker is the contract.
	MarkZeroalloc = "zeroalloc"
	// MarkEnvelope designates a function as the error-envelope writer:
	// the one place in internal/server allowed to write non-2xx status
	// codes directly. Requires a reason.
	MarkEnvelope = "envelope"
	// MarkLocked marks a function whose callers are documented to hold
	// the registry mutex (the "...Locked" suffix convention, spelled
	// out). Requires a reason.
	MarkLocked = "locked"
)

var knownMarks = map[string]bool{
	MarkWallclock: true,
	MarkUnordered: true,
	MarkZeroalloc: true,
	MarkEnvelope:  true,
	MarkLocked:    true,
}

// knownKinds lists knownMarks' kinds, sorted and comma-separated, for
// the unknown-marker message.
var knownKinds = strings.Join(slices.Sorted(maps.Keys(knownMarks)), ", ")

// reasonRequired lists the kinds whose marker must carry a reason
// string to take effect.
var reasonRequired = map[string]bool{
	MarkWallclock: true,
	MarkUnordered: true,
	MarkEnvelope:  true,
	MarkLocked:    true,
}

// A Marker is one parsed //whirl: comment.
type Marker struct {
	Kind   string
	Reason string
	Pos    token.Pos
	File   string // filename as recorded in the FileSet
	Line   int
	used   bool
}

var markerRe = regexp.MustCompile(`^//whirl:([a-z]+)(?:[ \t]+(.*))?$`)

// parseMarkers extracts every //whirl: marker from a file's comments.
// Unknown kinds are returned too (kind verbatim) so the runner can
// flag typos like //whirl:wallclok.
func parseMarkers(fset *token.FileSet, f *ast.File) []*Marker {
	var out []*Marker
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := markerRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			p := fset.Position(c.Pos())
			out = append(out, &Marker{
				Kind:   m[1],
				Reason: strings.TrimSpace(m[2]),
				Pos:    c.Pos(),
				File:   p.Filename,
				Line:   p.Line,
			})
		}
	}
	return out
}

// markerIndex indexes a package's markers by (file, line).
type markerIndex struct {
	byLine map[string]map[int][]*Marker
	all    []*Marker
}

func newMarkerIndex(fset *token.FileSet, files []*ast.File) *markerIndex {
	idx := &markerIndex{byLine: map[string]map[int][]*Marker{}}
	for _, f := range files {
		for _, m := range parseMarkers(fset, f) {
			lines := idx.byLine[m.File]
			if lines == nil {
				lines = map[int][]*Marker{}
				idx.byLine[m.File] = lines
			}
			lines[m.Line] = append(lines[m.Line], m)
			idx.all = append(idx.all, m)
		}
	}
	return idx
}

// at returns the marker of the given kind covering pos: on the same
// line, or alone on the line immediately above.
func (idx *markerIndex) at(fset *token.FileSet, pos token.Pos, kind string) *Marker {
	p := fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, m := range idx.byLine[p.Filename][line] {
			if m.Kind == kind {
				return m
			}
		}
	}
	return nil
}

// Suppressed reports whether a finding of the given marker kind at pos
// is allowlisted by a well-formed marker (correct kind, non-empty
// reason where one is required). The marker is recorded as used so the
// stale-marker check does not re-flag it.
func (p *Pass) Suppressed(pos token.Pos, kind string) bool {
	m := p.Pkg.markers.at(p.Pkg.Fset, pos, kind)
	if m == nil {
		return false
	}
	m.used = true
	if reasonRequired[kind] && m.Reason == "" {
		// A reason-less marker does not suppress; reportBadMarkers
		// flags the marker itself.
		return false
	}
	return true
}

// FuncMarker returns the marker of the given kind attached to a
// function declaration: in its doc comment, or on the line directly
// above the declaration (above the doc comment, when one exists).
func (p *Pass) FuncMarker(fn *ast.FuncDecl, kind string) *Marker {
	fset := p.Pkg.Fset
	start := fset.Position(fn.Pos())
	if fn.Doc != nil {
		docStart := fset.Position(fn.Doc.Pos()).Line
		docEnd := fset.Position(fn.Doc.End()).Line
		for line := docStart - 1; line <= docEnd; line++ {
			for _, m := range p.Pkg.markers.byLine[start.Filename][line] {
				if m.Kind == kind {
					m.used = true
					return m
				}
			}
		}
		return nil
	}
	for _, m := range p.Pkg.markers.byLine[start.Filename][start.Line-1] {
		if m.Kind == kind {
			m.used = true
			return m
		}
	}
	return nil
}

// reportBadMarkers emits marker-hygiene findings for the kinds an
// analyzer owns: reason-less markers of reason-required kinds, and —
// when checkStale is set — markers that suppressed nothing (stale
// allowlists are how grandfathered nondeterminism creeps back in).
func (p *Pass) reportBadMarkers(kinds []string, checkStale bool) {
	owned := map[string]bool{}
	for _, k := range kinds {
		owned[k] = true
	}
	for _, m := range p.Pkg.markers.all {
		if !owned[m.Kind] {
			continue
		}
		if reasonRequired[m.Kind] && m.Reason == "" {
			p.Reportf(m.Pos, "//whirl:%s marker requires a reason", m.Kind)
			continue
		}
		if checkStale && !m.used {
			p.Reportf(m.Pos, "//whirl:%s marker suppresses nothing; delete it", m.Kind)
		}
	}
}
