package lint

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness: each testdata/<name> directory is a
// self-contained module seeded with violations. `// want "regex"` on a
// line expects a finding there whose message matches; `// want+N`
// anchors the expectation N lines below the comment (used for marker
// findings, which land on the //whirl: line itself and so cannot share
// it with a second comment). One want consumes exactly one finding;
// several quoted patterns in one comment expect several findings.
var wantRe = regexp.MustCompile(`^// want([+-][0-9]+)? (.+)$`)

type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

func collectWants(t *testing.T, pkg *Package, root string) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rel, err := filepath.Rel(root, pos.Filename)
				if err != nil {
					t.Fatalf("relativizing %s: %v", pos.Filename, err)
				}
				file := filepath.ToSlash(rel)
				offset := 0
				if m[1] != "" {
					offset, _ = strconv.Atoi(m[1])
				}
				rest := strings.TrimSpace(m[2])
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s:%d: malformed want %q: %v", file, pos.Line, c.Text, err)
					}
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: unquoting %s: %v", file, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", file, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: file, line: pos.Line + offset, re: re, raw: pat})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return wants
}

// loadFixture loads the module under testdata/<name>.
func loadFixture(t *testing.T, name string) (string, []*Package) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return root, pkgs
}

// runFixture runs one analyzer over every package of a fixture module
// (bypassing Match) and diffs findings against the // want comments.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	root, pkgs := loadFixture(t, name)
	var findings []Finding
	var wants []*want
	for _, pkg := range pkgs {
		findings = append(findings, RunAnalyzer(a, pkg, root)...)
		wants = append(wants, collectWants(t, pkg, root)...)
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want expectations", name)
	}
	for _, f := range findings {
		if w := matchWant(wants, f); w != nil {
			w.hit = true
		} else {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.raw)
		}
	}
}

func matchWant(wants []*want, f Finding) *want {
	for _, w := range wants {
		if !w.hit && w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
			return w
		}
	}
	return nil
}

// Each acceptance case: the analyzer must flag every seeded violation
// of its invariant and nothing else.
func TestDeterminismFixture(t *testing.T)  { runFixture(t, Determinism, "determinism") }
func TestZeroallocFixture(t *testing.T)    { runFixture(t, Zeroalloc, "zeroalloc") }
func TestEnvelopeFixture(t *testing.T)     { runFixture(t, Envelope, "envelope") }
func TestSlogkeysFixture(t *testing.T)     { runFixture(t, Slogkeys, "slogkeys") }
func TestRegistrylockFixture(t *testing.T) { runFixture(t, Registrylock, "registrylock") }

// The runner flags typoed marker kinds that no analyzer would ever
// consult (the determinism fixture seeds //whirl:wallclok).
func TestUnknownMarkers(t *testing.T) {
	root, pkgs := loadFixture(t, "determinism")
	var got []Finding
	for _, pkg := range pkgs {
		got = append(got, unknownMarkers(pkg, root)...)
	}
	if len(got) != 1 {
		t.Fatalf("unknownMarkers = %v, want exactly one finding", got)
	}
	f := got[0]
	if f.Analyzer != "markers" || !strings.Contains(f.Message, "wallclok") {
		t.Fatalf("unexpected unknown-marker finding: %s", f)
	}
	for kind := range knownMarks {
		if !strings.Contains(f.Message, kind) {
			t.Errorf("unknown-marker message does not name kind %q: %s", kind, f.Message)
		}
	}
}
