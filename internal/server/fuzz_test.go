package server

import (
	"bytes"
	"math"
	"testing"

	"whirlpool/internal/experiments"
	"whirlpool/internal/schemes"
)

// FuzzSweepRequest feeds arbitrary bodies to the job builder behind
// POST /v1/sweeps (shard false) and POST /v1/cells (shard true), the
// way the handlers call it; no spec is registered. It must never panic,
// and an accepted request must be a grid the engine would run: its
// total is the resolved grid's cell count, its scale is finite and
// positive, and the grid passes the engine's own validation (with the
// inline spec's apps counted as registered, as they are once the job
// runs), so a job accepted at submit cannot fail validation later.
//
//	go test -fuzz FuzzSweepRequest -fuzztime 5s ./internal/server/
func FuzzSweepRequest(f *testing.F) {
	const spec = `{"apps":[{"name":"fz-a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],` +
		`"mixes":[{"name":"fz-m","apps":["fz-a","delaunay"],"pins":[3,0]}]}`
	for _, seed := range []struct {
		body  string
		shard bool
	}{
		{`{"apps":["delaunay"],"schemes":["jigsaw"],"scale":0.1}`, false},
		{`{"cells":[{"app":"delaunay","scheme":"jigsaw"}],"scale":0.1}`, true},
		{`{"apps":["all"]}`, false},
		{`{"spec":` + spec + `,"mixes":["fz-m"]}`, false},
		{`{"spec":` + spec + `,"mixes":["all"],"apps":["fz-a"],"schemes":["whirlpool","snuca-lru"]}`, false},
		{`{"apps":["delaunay","MIS","delaunay"]}`, false},
		{`{"spec":` + spec + `,"cells":[{"app":"fz-a","mix":"fz-m","scheme":"jigsaw"}]}`, true},
		{`{"spec":` + spec + `,"cells":[{"mix":"fz-m","scheme":"jigsaw"},{"app":"fz-a","scheme":"jigsaw"}]}`, true},
		{`{"apps":["delaunay"],"schemes":["bogus"]}`, false},
		{`{"apps":["delaunay"],"scale":-1}`, false},
		{`{"cells":[{"app":"delaunay","scheme":"jigsaw"}],"scale":-1}`, true},
		{``, false},
		{``, true},
	} {
		f.Add([]byte(seed.body), seed.shard)
	}
	f.Fuzz(func(t *testing.T, body []byte, shard bool) {
		j, err := buildJob(bytes.NewReader(body), shard)
		if err != nil {
			return
		}
		cfg := j.grid.Config
		if s := j.grid.Scale; !(s > 0) || math.IsInf(s, 0) {
			t.Fatalf("accepted scale %g", s)
		}
		want := len(cfg.Cells)
		if !shard {
			kinds := len(cfg.Kinds)
			if kinds == 0 {
				kinds = len(schemes.AllKinds())
			}
			want = (len(cfg.Apps) + len(cfg.Mixes)) * kinds
		}
		if j.total != want {
			t.Fatalf("total = %d, resolved grid has %d cells", j.total, want)
		}
		var specApps []string
		if j.specFile != nil {
			for _, a := range j.specFile.Apps {
				specApps = append(specApps, a.Name)
			}
		}
		n, err := experiments.ValidateGrid(&cfg, specApps)
		if err != nil {
			t.Fatalf("accepted grid fails the engine's validation: %v", err)
		}
		if n != j.total {
			t.Fatalf("engine counts %d cells, total = %d", n, j.total)
		}
	})
}
