package lint

import (
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// A Finding is one resolved diagnostic. File is module-root-relative
// and slash-separated, so findings are stable across checkouts and
// operating systems.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// String renders the go-vet-style diagnostic line.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Config selects what Run analyzes.
type Config struct {
	// Dir is the directory to resolve patterns in (the module root or
	// any directory inside it). Defaults to ".".
	Dir string
	// Patterns are go-list package patterns; default ["./..."].
	Patterns []string
}

// Result is one whirlvet run's outcome.
type Result struct {
	// Findings are sorted by position. Non-empty means the run failed.
	Findings []Finding
	// Packages is the number of packages analyzed.
	Packages int
}

// Run loads the requested packages and applies every analyzer whose
// Match accepts each one, plus the unknown-marker check.
func Run(cfg Config) (*Result, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	pkgs, err := Load(dir, cfg.Patterns...)
	if err != nil {
		return nil, err
	}
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}

	var findings []Finding
	for _, pkg := range pkgs {
		findings = append(findings, unknownMarkers(pkg, root)...)
		for _, a := range All() {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			findings = append(findings, RunAnalyzer(a, pkg, root)...)
		}
	}
	sortFindings(findings)
	return &Result{Findings: findings, Packages: len(pkgs)}, nil
}

// RunAnalyzer applies one analyzer to one loaded package, bypassing
// Match — the fixture tests use this to run an analyzer against a
// testdata module directly. root anchors relative finding paths; use
// pkg.Dir for fixture-local paths.
func RunAnalyzer(a *Analyzer, pkg *Package, root string) []Finding {
	var out []Finding
	pass := &Pass{
		Analyzer: a,
		Pkg:      pkg,
		report: func(d Diagnostic) {
			out = append(out, resolve(pkg.Fset, d, root))
		},
	}
	a.Run(pass)
	sortFindings(out)
	return out
}

// unknownMarkers flags //whirl: markers whose kind no analyzer owns.
// A typo like //whirl:wallclok would otherwise read as an allowlist
// entry while suppressing nothing.
func unknownMarkers(pkg *Package, root string) []Finding {
	var out []Finding
	for _, m := range pkg.markers.all {
		if knownMarks[m.Kind] {
			continue
		}
		out = append(out, resolve(pkg.Fset, Diagnostic{
			Pos:      m.Pos,
			Analyzer: "markers",
			Message:  fmt.Sprintf("unknown marker //whirl:%s (known kinds: %s)", m.Kind, knownKinds),
		}, root))
	}
	return out
}

func resolve(fset *token.FileSet, d Diagnostic, root string) Finding {
	p := fset.Position(d.Pos)
	file := p.Filename
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return Finding{
		File:     filepath.ToSlash(file),
		Line:     p.Line,
		Col:      p.Column,
		Analyzer: d.Analyzer,
		Message:  d.Message,
	}
}

// moduleRoot locates the enclosing module's root directory.
func moduleRoot(dir string) (string, error) {
	pkgs, err := golist(dir, "-m", "-json=Dir")
	if err != nil {
		return "", err
	}
	if len(pkgs) == 0 || pkgs[0].Dir == "" {
		return "", fmt.Errorf("no module found at %s", dir)
	}
	return pkgs[0].Dir, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// WriteText prints findings in the file:line:col form compilers and
// editors understand.
func WriteText(w io.Writer, findings []Finding) {
	for _, f := range findings {
		fmt.Fprintln(w, f.String())
	}
}
