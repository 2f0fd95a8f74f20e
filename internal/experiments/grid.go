package experiments

import (
	"fmt"
	"math"
	"slices"

	"whirlpool/internal/schemes"
	"whirlpool/internal/spec"
	"whirlpool/internal/workloads"
)

// CheckScale validates a workload-length multiplier and maps 0 (unset)
// to 1, the paper's full runs. workloads.Build converts scale × the
// access count to an integer, so a negative, NaN or infinite scale
// would ask for an unbounded run.
func CheckScale(scale float64) (float64, error) {
	switch {
	case scale == 0:
		return 1, nil
	case scale > 0 && !math.IsInf(scale, 1):
		return scale, nil
	}
	return 0, fmt.Errorf("scale must be a finite number >= 0, got %g", scale)
}

// GridRequest names a sweep grid the way whirlsweep's flags and
// whirld's POST /v1/sweeps and POST /v1/cells bodies do.
type GridRequest struct {
	// Apps are app names, or ["all"] for every registered app plus the
	// Specs' apps. Empty means the Specs' apps, else every registered
	// app, unless Mixes is set: then only the mixes are swept.
	Apps []string
	// Mixes are mix names the Specs define, or ["all"].
	Mixes []string
	// Schemes are scheme IDs, or ["all"]; empty means every scheme.
	Schemes []string
	// Cells, when set, is the grid itself (a worker shard): Apps, Mixes
	// and Schemes are ignored, and the cells may name any Specs mix.
	Cells []SweepCell
	// Specs are parsed workload-spec files, registered or not: their
	// apps count as known.
	Specs []*spec.File
	// Scale is the workload-length multiplier (see CheckScale).
	Scale float64
}

// Grid is a resolved sweep grid.
type Grid struct {
	// Config carries the grid fields of a SweepConfig (Apps, Mixes,
	// Kinds, Cells); callers fill in the rest.
	Config SweepConfig
	// Scale is the checked multiplier for NewHarness.
	Scale float64
}

// ResolveGrid turns a grid request into the grid Sweep runs and its
// cell count. It applies the checks Sweep applies before it simulates
// (ValidateGrid), so a grid it accepts cannot fail them later, once
// the Specs are registered.
func ResolveGrid(req GridRequest) (Grid, int, error) {
	scale, err := CheckScale(req.Scale)
	if err != nil {
		return Grid{}, 0, err
	}
	var specApps []string
	for _, f := range req.Specs {
		for _, a := range f.Apps {
			specApps = append(specApps, a.Name)
		}
	}
	var cfg SweepConfig
	if len(req.Cells) > 0 {
		cfg.Cells = req.Cells
		cfg.Mixes = sweepMixes(req.Specs, nil)
	} else {
		cfg.Apps = resolveApps(req, specApps)
		if cfg.Mixes, err = resolveMixes(req.Mixes, req.Specs); err != nil {
			return Grid{}, 0, err
		}
		if len(req.Schemes) > 0 && !isAll(req.Schemes) {
			for _, name := range req.Schemes {
				k, err := schemes.ParseKind(name)
				if err != nil {
					return Grid{}, 0, err
				}
				cfg.Kinds = append(cfg.Kinds, k)
			}
		}
	}
	cells, err := ValidateGrid(&cfg, specApps)
	if err != nil {
		return Grid{}, 0, err
	}
	return Grid{Config: cfg, Scale: scale}, cells, nil
}

// ValidateGrid runs the checks Sweep runs on cfg's grid before it
// simulates and returns the grid's cell count. The apps in known count
// as registered.
func ValidateGrid(cfg *SweepConfig, known []string) (int, error) {
	jobs, err := validateGrid(cfg, known)
	return len(jobs), err
}

func isAll(names []string) bool { return len(names) == 1 && names[0] == "all" }

// resolveApps applies the defaults of GridRequest.Apps. "All" is the
// registry plus the spec apps not registered yet, in the order
// registering them would give.
func resolveApps(req GridRequest, specApps []string) []string {
	switch {
	case len(req.Apps) > 0 && !isAll(req.Apps):
		return req.Apps
	case len(req.Apps) == 0 && len(req.Mixes) > 0:
		return nil
	case len(req.Apps) == 0 && len(specApps) > 0:
		return specApps
	}
	names := workloads.Names()
	for _, n := range specApps {
		if !slices.Contains(names, n) {
			names = append(names, n)
		}
	}
	return names
}

// resolveMixes selects the named mixes from the specs, in spec order.
func resolveMixes(names []string, specs []*spec.File) ([]SweepMix, error) {
	if len(names) == 0 {
		return nil, nil
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiments: mixes need a spec that defines them")
	}
	if isAll(names) {
		mixes := sweepMixes(specs, nil)
		if len(mixes) == 0 {
			return nil, fmt.Errorf("experiments: mixes [all]: the specs define no mixes")
		}
		return mixes, nil
	}
	mixes := sweepMixes(specs, names)
	for _, n := range names {
		if !slices.ContainsFunc(mixes, func(m SweepMix) bool { return m.Name == n }) {
			return nil, fmt.Errorf("experiments: mix %q not defined in the specs", n)
		}
	}
	return mixes, nil
}

// sweepMixes converts the specs' mixes named in names (nil: all of
// them). A mix defined in two specs appears twice, which ValidateGrid
// rejects as a duplicate.
func sweepMixes(specs []*spec.File, names []string) []SweepMix {
	var out []SweepMix
	for _, f := range specs {
		for i := range f.Mixes {
			if m := &f.Mixes[i]; names == nil || slices.Contains(names, m.Name) {
				out = append(out, SweepMix{Name: m.Name, Apps: m.Apps, Pins: m.Pins, Chip: m.BuildChip()})
			}
		}
	}
	return out
}
