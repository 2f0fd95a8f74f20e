package sim

import (
	"reflect"
	"testing"

	"whirlpool/internal/energy"
	"whirlpool/internal/llc"
	"whirlpool/internal/trace"
)

// meteredLLC is fakeLLC plus every outcome kind and a meter: lines
// ≡ 3 mod 4 bypass instead of missing, each access charges one bank
// access, and each non-hit charges core+1 hops. Energy then pins both
// the per-core access order and the reset at the warm boundary.
type meteredLLC struct {
	fakeLLC
	m *energy.Meter
}

func (l *meteredLLC) Access(core int, a trace.LLCAccess) (uint64, llc.Outcome) {
	lat, out := l.fakeLLC.Access(core, a)
	l.m.AddBank(1)
	if out != llc.Hit {
		l.m.AddHops(core + 1)
	}
	if out == llc.Miss && !a.Writeback && a.Line%4 == 3 {
		out = llc.Bypass
	}
	return lat, out
}

// withL2Hits returns t with a private-level L2 hit count, so the
// L2HitStall term of per-core cycles is pinned too.
func withL2Hits(t *trace.LLCTrace, n uint64) *trace.LLCTrace {
	t.L2Hits = n
	return t
}

// pinnedCore is the CoreResult subset TestRunPinned asserts.
type pinnedCore struct {
	Cycles, Instrs, Hits, Misses, Bypasses, Writebacks uint64
}

// TestRunPinned asserts absolute Result values for fixed configs: the
// timing arithmetic, tie-break, Tick cadence across the warm boundary
// and the energy reset. A change that moves these numbers moves every
// sweep row too (make golden-check).
func TestRunPinned(t *testing.T) {
	type want struct {
		cycles  uint64
		cores   []pinnedCore
		energy  energy.Meter
		onTicks int // OnTick calls (measured pass only)
		ticks   int // LLC Tick calls (warmup included)
	}
	cases := []struct {
		name string
		cfg  Config
		want want
	}{
		{
			name: "single-cold",
			cfg: Config{
				Traces: []trace.Reader{withL2Hits(mkMixedTrace(600, 10, 3), 40)},
			},
			want: want{
				cycles: 19740,
				cores:  []pinnedCore{{Cycles: 19740, Instrs: 6000, Hits: 300, Misses: 150, Bypasses: 150, Writebacks: 120}},
				energy: energy.Meter{BankPJ: 288000, NetworkPJ: 25200},
			},
		},
		{
			name: "single-warm",
			cfg: Config{
				Traces: []trace.Reader{withL2Hits(mkMixedTrace(600, 10, 3), 40)},
				Warmup: true,
			},
			want: want{
				cycles: 19740,
				cores:  []pinnedCore{{Cycles: 19740, Instrs: 6000, Hits: 300, Misses: 150, Bypasses: 150, Writebacks: 120}},
				energy: energy.Meter{BankPJ: 288000, NetworkPJ: 25200},
			},
		},
		{
			name: "three-core-loop-warm-tied",
			cfg: Config{
				Traces: []trace.Reader{
					mkMixedTrace(400, 8, 3),
					withL2Hits(mkMixedTrace(250, 8, 5), 7),
					mkMixedTrace(150, 8, 1),
				},
				Loop:      true,
				Warmup:    true,
				TickEvery: 2_000,
			},
			want: want{
				cycles: 12600,
				cores: []pinnedCore{
					{Cycles: 12600, Instrs: 3200, Hits: 200, Misses: 100, Bypasses: 100, Writebacks: 80},
					{Cycles: 7917, Instrs: 2000, Hits: 125, Misses: 63, Bypasses: 62, Writebacks: 50},
					{Cycles: 4725, Instrs: 1200, Hits: 75, Misses: 38, Bypasses: 37, Writebacks: 30},
				},
				energy:  energy.Meter{BankPJ: 767200, NetworkPJ: 144600},
				onTicks: 6,
				ticks:   12,
			},
		},
		{
			name: "ticks-during-warmup",
			cfg: Config{
				Traces: []trace.Reader{
					mkMixedTrace(300, 12, 3),
					nil,
					mkMixedTrace(200, 6, 7),
				},
				Loop:      true,
				Warmup:    true,
				TickEvery: 700,
			},
			want: want{
				cycles: 10050,
				cores: []pinnedCore{
					{Cycles: 10050, Instrs: 3600, Hits: 150, Misses: 75, Bypasses: 75, Writebacks: 60},
					{},
					{Cycles: 6100, Instrs: 1200, Hits: 100, Misses: 50, Bypasses: 50, Writebacks: 40},
				},
				energy:  energy.Meter{BankPJ: 364000, NetworkPJ: 70380},
				onTicks: 14,
				ticks:   28,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &energy.Meter{}
			l := &meteredLLC{fakeLLC: fakeLLC{hitLat: 10, missLat: 100}, m: m}
			cfg := tc.cfg
			cfg.LLC, cfg.Meter = l, m
			onTicks := 0
			cfg.OnTick = func(uint64) { onTicks++ }
			res := mustRun(t, cfg)
			got := want{cycles: res.Cycles, energy: res.Energy, onTicks: onTicks, ticks: l.ticks}
			for _, c := range res.Cores {
				got.cores = append(got.cores, pinnedCore{c.Cycles, c.Instrs, c.Hits, c.Misses, c.Bypasses, c.Writebacks})
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got  %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
