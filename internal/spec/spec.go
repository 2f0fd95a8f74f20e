// Package spec parses declarative workload-spec files into the
// workloads.AppSpec values the simulator runs. A spec file is JSON: a
// set of apps (structures, access patterns, phase schedules) in
// workloads.AppSpec's own JSON form, plus optional multi-app mixes and a
// file-level scale factor. The built-in suite encodes and parses back
// exactly (see Builtin and the tests), so the 31 hard-coded apps are
// just one loadable spec among many.
//
// See docs/workload-specs.md for the schema reference and examples.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"

	"whirlpool/internal/addr"
	"whirlpool/internal/mem"
	"whirlpool/internal/noc"
	"whirlpool/internal/workloads"
)

// File is a parsed workload-spec file. Its apps are workloads.AppSpec
// values: their JSON form is the schema.
type File struct {
	// Version is the schema version (currently 1; 0 means 1).
	Version int `json:"version,omitempty"`
	// Name labels the spec set (used in logs only).
	Name string `json:"name,omitempty"`
	// Comment is free-form documentation.
	Comment string `json:"comment,omitempty"`
	// Scale multiplies every app's access count when the file is
	// registered (0 = 1.0). Apps keep their unscaled counts, so encoding
	// a parsed file never scales twice.
	Scale float64 `json:"scale,omitempty"`
	// Apps are the workload definitions.
	Apps []workloads.AppSpec `json:"apps"`
	// Mixes name multi-programmed combinations (one app per core). Mix
	// members may be apps from this file or built-in suite apps.
	Mixes []Mix `json:"mixes,omitempty"`
}

// Mix is a named multi-programmed combination.
type Mix struct {
	Name string   `json:"name"`
	Apps []string `json:"apps"`
	// Pins places app i on core pins[i] (distinct, within the chip's
	// core count). Omitted: app i runs on core i.
	Pins []int `json:"pins,omitempty"`
	// Chip overrides the topology this mix runs on. Omitted: the
	// 4-core chip when the apps and pins fit, else the 16-core chip.
	Chip *ChipSpec `json:"chip,omitempty"`
}

// ChipSpec describes a chip topology in a spec file: either one of the
// paper's presets or a custom mesh.
type ChipSpec struct {
	// Preset names a paper chip: "4core" (Fig 1) or "16core" (Fig 12).
	// It takes no Mesh, and Cores only if it repeats the preset's count.
	Preset string `json:"preset,omitempty"`
	// Mesh is a custom [width, height] bank grid.
	Mesh []int `json:"mesh,omitempty"`
	// Cores attaches this many cores around the mesh border (default 4).
	Cores int `json:"cores,omitempty"`
	// BankKB sizes each LLC bank in KB (default 512).
	BankKB int `json:"bank_kb,omitempty"`
}

// Build checks the chip description and builds it. The rules live in
// noc.Desc, shared with the public Chip type.
func (c *ChipSpec) Build() (*noc.Chip, error) {
	d := noc.Desc{Preset: c.Preset, Cores: c.Cores, BankKB: c.BankKB}
	switch {
	case len(c.Mesh) == 2:
		d.W, d.H = c.Mesh[0], c.Mesh[1]
	case len(c.Mesh) != 0 || c.Preset == "":
		return nil, fmt.Errorf("chip needs either a preset or a [width, height] mesh")
	}
	return d.Build()
}

// BuildChip resolves a validated mix's chip override, or nil for the
// default topology.
func (m *Mix) BuildChip() *noc.Chip {
	if m.Chip == nil {
		return nil
	}
	chip, _ := m.Chip.Build()
	return chip
}

// Defaults applied by Parse when a field is omitted.
const (
	DefaultAccesses = 3_000_000
	DefaultAPKI     = 35
	DefaultSuite    = "custom"
)

// nameRe restricts app/mix names so they survive comma-separated CLI
// flags and file paths.
var nameRe = regexp.MustCompile(`^[A-Za-z0-9._+-]+$`)

// paramOK checks a (pattern, param) pair; shared by struct defaults and
// phase overrides.
func paramOK(p workloads.Pattern, param float64) error {
	switch p {
	case workloads.Zipf:
		if param <= 0 || param > 4 {
			return fmt.Errorf("zipf needs param in (0,4], got %g", param)
		}
	case workloads.WSLoop, workloads.RandWS:
		if param <= 0 || param > 1 {
			return fmt.Errorf("%v needs param in (0,1] (working-set fraction), got %g", p, param)
		}
	}
	// Other patterns ignore param (the generator never reads it).
	return nil
}

// Parse decodes, applies defaults, and validates a spec file. Unknown
// JSON fields are rejected so typos fail loudly.
func Parse(data []byte) (*File, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("spec: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after the top-level object")
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Load reads and parses a spec file from disk. Relative "trace" paths
// in the file resolve against the file's own directory.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %v", err)
	}
	f, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	f.resolvePaths(filepath.Dir(path))
	return f, nil
}

// validate applies defaults and checks every constraint, reporting the
// first violation with its JSON path. It also drops empty lists, so an
// accepted file encodes and re-parses to an equal value.
func (f *File) validate() error {
	if f.Version != 0 && f.Version != 1 {
		return fmt.Errorf("spec: unsupported version %d (this build understands 1)", f.Version)
	}
	if f.Scale < 0 {
		return fmt.Errorf("spec: scale must be >= 0, got %g", f.Scale)
	}
	if len(f.Apps) == 0 && len(f.Mixes) == 0 {
		return fmt.Errorf("spec: file defines no apps and no mixes")
	}
	appNames := make(map[string]bool, len(f.Apps))
	for i := range f.Apps {
		a := &f.Apps[i]
		at := fmt.Sprintf("apps[%d] (%s)", i, a.Name)
		if err := validateApp(a); err != nil {
			return fmt.Errorf("spec: %s: %v", at, err)
		}
		if appNames[a.Name] {
			return fmt.Errorf("spec: %s: duplicate app name", at)
		}
		appNames[a.Name] = true
	}
	if len(f.Mixes) == 0 {
		f.Mixes = nil
	}
	mixNames := make(map[string]bool, len(f.Mixes))
	for i := range f.Mixes {
		m := &f.Mixes[i]
		at := fmt.Sprintf("mixes[%d] (%s)", i, m.Name)
		if !nameRe.MatchString(m.Name) {
			return fmt.Errorf("spec: %s: name must match %s", at, nameRe)
		}
		if mixNames[m.Name] {
			return fmt.Errorf("spec: %s: duplicate mix name", at)
		}
		mixNames[m.Name] = true
		// The core budget: the mix's own chip, or the default choice
		// (4-core when apps and pins fit, else 16-core).
		cores := 16
		if m.Chip != nil {
			chip, err := m.Chip.Build()
			if err != nil {
				return fmt.Errorf("spec: %s: chip: %v", at, err)
			}
			cores = chip.NCores()
			if len(m.Chip.Mesh) == 0 {
				m.Chip.Mesh = nil
			}
		}
		if len(m.Apps) < 1 || len(m.Apps) > cores {
			return fmt.Errorf("spec: %s: mixes take 1..%d apps (one per core), got %d", at, cores, len(m.Apps))
		}
		for _, name := range m.Apps {
			if appNames[name] {
				continue
			}
			if _, ok := workloads.ByName(name); !ok {
				return fmt.Errorf("spec: %s: unknown app %q (not in this file or the known suite)", at, name)
			}
		}
		if m.Pins != nil {
			if len(m.Pins) != len(m.Apps) {
				return fmt.Errorf("spec: %s: pins needs one core per app (%d), got %d", at, len(m.Apps), len(m.Pins))
			}
			seen := make(map[int]bool, len(m.Pins))
			for j, p := range m.Pins {
				if p < 0 || p >= cores {
					return fmt.Errorf("spec: %s: pins[%d] = %d out of range [0,%d)", at, j, p, cores)
				}
				if seen[p] {
					return fmt.Errorf("spec: %s: pins[%d] = %d pins two apps to one core", at, j, p)
				}
				seen[p] = true
			}
		}
	}
	return nil
}

// validateApp applies defaults to one app in place and checks it.
func validateApp(a *workloads.AppSpec) error {
	if !nameRe.MatchString(a.Name) {
		return fmt.Errorf("name must match %s", nameRe)
	}
	switch a.Source {
	case "", "synthetic":
		a.Source = ""
	case "trace":
		return validateTraceSource(a)
	default:
		return fmt.Errorf("unknown source %q (valid: synthetic, trace)", a.Source)
	}
	if a.TracePath != "" {
		return fmt.Errorf("trace is only valid with source \"trace\"")
	}
	if a.Suite == "" {
		a.Suite = DefaultSuite
	}
	if a.Accesses == 0 {
		a.Accesses = DefaultAccesses
	}
	if a.APKI == 0 {
		a.APKI = DefaultAPKI
	}
	if a.APKI < 0 || a.APKI > 1000 {
		return fmt.Errorf("apki must be in (0,1000], got %g", a.APKI)
	}
	if a.PeriodFrac < 0 || a.PeriodFrac > 1 {
		return fmt.Errorf("period_frac must be in [0,1], got %g", a.PeriodFrac)
	}
	if a.PhaseJitter < 0 || a.PhaseJitter >= 1 {
		return fmt.Errorf("phase_jitter must be in [0,1), got %g", a.PhaseJitter)
	}
	if len(a.Structs) == 0 {
		return fmt.Errorf("needs at least one struct")
	}
	structNames := make(map[string]bool, len(a.Structs))
	for i, st := range a.Structs {
		at := fmt.Sprintf("structs[%d] (%s)", i, st.Name)
		if st.Name == "" {
			return fmt.Errorf("%s: needs a name", at)
		}
		if structNames[st.Name] {
			return fmt.Errorf("%s: duplicate struct name", at)
		}
		structNames[st.Name] = true
		if st.Bytes < addr.LineBytes || st.Bytes > mem.ArenaBytes {
			return fmt.Errorf("%s: bytes must be at least one cache line (%d) and at most one arena (%d), got %d", at, addr.LineBytes, mem.ArenaBytes, st.Bytes)
		}
		if st.Pattern == workloads.Inherit {
			return fmt.Errorf("%s: unknown pattern (structs need one of: %s; \"inherit\" is for phase overrides)", at, workloads.StructPatterns())
		}
		if err := paramOK(st.Pattern, st.Param); err != nil {
			return fmt.Errorf("%s: %v", at, err)
		}
		if st.WriteFrac < 0 || st.WriteFrac > 1 {
			return fmt.Errorf("%s: write_frac must be in [0,1], got %g", at, st.WriteFrac)
		}
	}
	if len(a.Phases) == 0 {
		w := make([]float64, len(a.Structs))
		for i := range w {
			w[i] = 1
		}
		a.Phases = []workloads.PhaseSpec{{Len: 1, Weights: w}}
	}
	for i, ph := range a.Phases {
		at := fmt.Sprintf("phases[%d]", i)
		if ph.Len <= 0 {
			return fmt.Errorf("%s: len must be > 0, got %g", at, ph.Len)
		}
		if len(ph.Weights) != len(a.Structs) {
			return fmt.Errorf("%s: weights needs one entry per struct (%d), got %d", at, len(a.Structs), len(ph.Weights))
		}
		sum := 0.0
		for j, w := range ph.Weights {
			if w < 0 {
				return fmt.Errorf("%s: weights[%d] must be >= 0, got %g", at, j, w)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("%s: weights must sum to > 0", at)
		}
		if ph.Patterns != nil && len(ph.Patterns) != len(a.Structs) {
			return fmt.Errorf("%s: patterns needs one entry per struct (%d), got %d", at, len(a.Structs), len(ph.Patterns))
		}
		if ph.Params != nil && len(ph.Params) != len(a.Structs) {
			return fmt.Errorf("%s: params needs one entry per struct (%d), got %d", at, len(a.Structs), len(ph.Params))
		}
		// Validate the effective (pattern, param) pair the generator
		// will use for each struct in this phase: patterns default to
		// the struct's own, and a phase param of 0 keeps the struct
		// default — note the generator applies params even when the
		// phase has no patterns array.
		for j := range a.Structs {
			p := a.Structs[j].Pattern
			if ph.Patterns != nil && ph.Patterns[j] != workloads.Inherit {
				p = ph.Patterns[j]
			}
			param := a.Structs[j].Param
			if ph.Params != nil && ph.Params[j] != 0 {
				param = ph.Params[j]
			}
			if err := paramOK(p, param); err != nil {
				return fmt.Errorf("%s: structs[%d] (%s) in this phase: %v", at, j, a.Structs[j].Name, err)
			}
		}
	}
	if len(a.ManualPools) == 0 {
		a.ManualPools = nil
	}
	seenIdx := make(map[int]bool)
	for gi, group := range a.ManualPools {
		for _, si := range group {
			if si < 0 || si >= len(a.Structs) {
				return fmt.Errorf("manual_pools[%d]: struct index %d out of range [0,%d)", gi, si, len(a.Structs))
			}
			if seenIdx[si] {
				return fmt.Errorf("manual_pools[%d]: struct index %d appears in two pools", gi, si)
			}
			seenIdx[si] = true
		}
	}
	return nil
}

// validateTraceSource checks a "trace"-sourced app: it takes a .wtrc
// path and nothing that only makes sense for the synthetic generator.
// The file itself is opened at run time, not load time, so specs can
// describe traces recorded later.
func validateTraceSource(a *workloads.AppSpec) error {
	if a.TracePath == "" {
		return fmt.Errorf("source \"trace\" needs a trace file path (record one with: whirltool trace record)")
	}
	if len(a.Structs) != 0 || len(a.Phases) != 0 || len(a.ManualPools) != 0 {
		return fmt.Errorf("trace-sourced apps take no structs, phases, or manual_pools (the recording fixed them)")
	}
	if a.Accesses != 0 || a.APKI != 0 || a.PeriodFrac != 0 || a.PhaseJitter != 0 || a.ManualLOC != 0 {
		return fmt.Errorf("trace-sourced apps take no generator parameters (accesses, apki, period_frac, phase_jitter, manual_loc)")
	}
	if a.Suite == "" {
		a.Suite = "trace"
	}
	a.Structs, a.Phases, a.ManualPools = nil, nil, nil // drop empty lists
	return nil
}

// resolvePaths rebases the file's relative trace paths onto dir (the
// spec file's directory). Load calls it; Parse leaves paths untouched.
func (f *File) resolvePaths(dir string) {
	for i := range f.Apps {
		a := &f.Apps[i]
		if a.TracePath != "" && !filepath.IsAbs(a.TracePath) {
			a.TracePath = filepath.Join(dir, a.TracePath)
		}
	}
}

// Register registers the file's apps with the workloads registry
// (replacing same-named apps), with the file-level scale applied to
// access counts, and returns the registered names.
func (f *File) Register() ([]string, error) {
	scale := f.Scale
	if scale == 0 {
		scale = 1
	}
	specs := make([]workloads.AppSpec, len(f.Apps))
	names := make([]string, len(f.Apps))
	for i, a := range f.Apps {
		a.Accesses = uint64(float64(a.Accesses) * scale)
		specs[i], names[i] = a, a.Name
	}
	if err := workloads.RegisterAll(specs); err != nil {
		return nil, err
	}
	return names, nil
}

// Builtin returns the built-in suite in spec-file form.
func Builtin() *File {
	return &File{
		Version: 1,
		Name:    "builtin",
		Comment: "The paper's 31-app synthetic suite, exported by whirlsweep -dump-builtin. Regenerate after editing internal/workloads/specs.go.",
		Apps:    workloads.Specs(),
	}
}

// Encode renders a spec file as canonical indented JSON.
func Encode(f *File) ([]byte, error) {
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
