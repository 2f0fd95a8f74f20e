package experiments

import (
	"whirlpool/internal/addr"
	"whirlpool/internal/mem"
	"whirlpool/internal/whirltool"
	"whirlpool/internal/workloads"
)

// dendroKey names one memoized WhirlTool profile. The harness holds the
// memo, so its Scale and Seed are part of the key, and Invalidate drops
// an app's profiles along with its trace; Fig 16's three pool counts
// reuse one profiling run.
type dendroKey struct {
	app   string
	train bool
}

// Dendrogram profiles an app with WhirlTool and returns its clustering.
// train profiles the paper's train/small inputs: a shorter run with a
// different seed (different input graph/data, same program).
func (h *Harness) Dendrogram(appName string, train bool) *whirltool.Dendrogram {
	key := dendroKey{appName, train}
	h.mu.Lock()
	d, ok := h.dendros[key]
	h.mu.Unlock()
	if ok {
		return d
	}

	spec, ok := workloads.ByName(appName)
	if !ok {
		panic("experiments: unknown app " + appName)
	}
	scale, seed := h.Scale, h.Seed
	if train {
		scale, seed = h.Scale*0.35, h.Seed+0x7121
	}
	w := workloads.Build(spec, scale)
	interval := w.Accesses / 8
	if interval < 10_000 {
		interval = 10_000
	}
	prof := whirltool.NewProfiler(
		func(l addr.Line) mem.Callpoint { return w.Space.CallpointOfLine(l) },
		whirltool.ProfilerConfig{IntervalAccesses: interval},
	)
	st := w.Stream(seed)
	for {
		a, ok := st.Next()
		if !ok {
			break
		}
		prof.Access(a.Line)
	}
	d = whirltool.Analyze(prof.Finish())
	h.mu.Lock()
	h.dendros[key] = d
	h.mu.Unlock()
	return d
}

// WhirlToolGrouping returns the k-pool classification as struct-index
// groups (callpoint i+1 tags structure i).
func (h *Harness) WhirlToolGrouping(appName string, k int, train bool) [][]int {
	d := h.Dendrogram(appName, train)
	pools := d.Pools(k)
	out := make([][]int, 0, len(pools))
	for _, group := range pools {
		g := make([]int, 0, len(group))
		for _, cp := range group {
			g = append(g, int(cp)-1)
		}
		out = append(out, g)
	}
	return out
}
