package schemes

import (
	"cmp"
	"slices"

	"whirlpool/internal/addr"
	"whirlpool/internal/cache"
	"whirlpool/internal/energy"
	"whirlpool/internal/llc"
	"whirlpool/internal/noc"
	"whirlpool/internal/stats"
	"whirlpool/internal/trace"
)

// Awasthi implements Awasthi et al. [4]: dynamic hardware-assisted,
// software-controlled page placement. Pages start in the few banks closest
// to the first-touch core; an OS routine periodically migrates the most
// heavily accessed pages to closer banks when the benefit (saved hop
// cycles) outweighs the cost (copying the page), controlled by the
// alphaA/alphaB thresholds swept in Appendix A.
//
// Because placement is per-page and incremental, the scheme can get stuck
// at a small allocation (Sec 3.3): pages concentrate in the initial banks
// and migrations only pile more pages into the close banks, so capacity
// pressure there produces misses that a global reconfiguration would avoid.
type Awasthi struct {
	chip  *noc.Chip
	meter *energy.Meter
	banks []*cache.SetAssoc

	pageIdx   map[addr.Page]int32 // page -> its entry in pages
	pages     []pageStat          // every page touched, in first-touch order
	bankPages []int               // assigned pages per bank (occupancy tracking)
	epoch     uint64
	last      uint64

	Hits, Misses  uint64
	Migrations    uint64
	WritebacksMem uint64
}

// pageStat is a page's placement and its heat since the last decay:
// accesses (halved every epoch) and the core that made the latest one.
type pageStat struct {
	pg    addr.Page
	bank  int32
	count uint32
	core  uint8
}

// initialBanks is how many nearest banks first-touch allocation spreads
// over (Awasthi's initial allocation; Sec 4.5 notes it is four banks).
const initialBanks = 4

// The migration thresholds, the best-performing pair of Appendix A's
// sweep: alphaA scales migration cost against benefit; alphaB caps how
// much of a bank's capacity migrated-in pages may claim per epoch.
const (
	alphaA = 1.0
	alphaB = 0.25
)

// NewAwasthi builds the scheme.
func NewAwasthi(chip *noc.Chip, meter *energy.Meter, epochCycles uint64) *Awasthi {
	a := &Awasthi{
		chip:      chip,
		meter:     meter,
		pageIdx:   make(map[addr.Page]int32),
		bankPages: make([]int, chip.NBanks()),
		epoch:     epochCycles,
	}
	for b := 0; b < chip.NBanks(); b++ {
		a.banks = append(a.banks, cache.NewSetAssoc(chip.BankBytes, 16, cache.LRU))
	}
	return a
}

// Name implements llc.LLC.
func (a *Awasthi) Name() string { return "Awasthi" }

// page returns l's page entry. The entry is valid until the next first
// touch appends to pages.
func (a *Awasthi) page(core int, l addr.Line) *pageStat {
	pg := addr.PageOfLine(l)
	if i, ok := a.pageIdx[pg]; ok {
		return &a.pages[i]
	}
	// First touch: one of the initialBanks closest banks, hashed by page.
	near := a.chip.Mesh.BanksByDistance(core)
	b := near[stats.Hash64(uint64(pg))%initialBanks]
	a.pageIdx[pg] = int32(len(a.pages))
	a.pages = append(a.pages, pageStat{pg: pg, bank: int32(b)})
	a.bankPages[b]++
	return &a.pages[len(a.pages)-1]
}

// occupancy returns bank b's assigned-page load relative to its capacity.
func (a *Awasthi) occupancy(b int) float64 {
	return float64(a.bankPages[b]) * addr.LinesPerPage / float64(a.chip.BankLines())
}

// score is the placement cost of a page for a core at a bank: network
// distance plus a capacity-pressure penalty (the alphaB knob trades
// proximity against contention — Awasthi et al.'s capacity management).
func (a *Awasthi) score(core, bank int) float64 {
	m := a.chip.Mesh
	occ := a.occupancy(bank)
	pressure := 0.0
	if occ > 1 {
		// Overcommitted banks thrash: penalize by expected extra misses.
		pressure = (occ - 1) * float64(noc.MemLatency)
	}
	return float64(2*noc.HopLatency(m.CoreBankHops(core, bank))) + pressure/alphaB
}

// Access implements llc.LLC.
func (a *Awasthi) Access(core int, acc trace.LLCAccess) (uint64, llc.Outcome) {
	m := a.chip.Mesh
	p := a.page(core, acc.Line)
	bank := int(p.bank)
	arr := a.banks[bank]
	if acc.Writeback {
		a.meter.AddHops(m.CoreBankHops(core, bank))
		if arr.Writeback(acc.Line) {
			a.meter.AddTagProbe(1)
		} else {
			a.meter.AddTagProbe(1)
			a.meter.AddDRAM(1)
			a.meter.AddHops(m.BankMemHops(bank))
			a.WritebacksMem++
		}
		return 0, llc.Miss
	}
	// Track page heat for the migration runtime.
	p.count++
	p.core = uint8(core)

	hops := m.CoreBankHops(core, bank)
	lat := 2*noc.HopLatency(hops) + noc.BankLatency
	a.meter.AddBank(1)
	a.meter.AddHops(hops)
	hit, ev, evicted := arr.Access(acc.Line, acc.Write)
	if hit {
		a.Hits++
		return lat, llc.Hit
	}
	a.Misses++
	memHops := m.BankMemHops(bank)
	lat += noc.MemLatency + 2*noc.HopLatency(memHops)
	a.meter.AddDRAM(1)
	a.meter.AddHops(memHops)
	if evicted && ev.Dirty {
		a.meter.AddDRAM(1)
		a.WritebacksMem++
	}
	return lat, llc.Miss
}

// Tick implements llc.LLC: the periodic page-migration routine.
func (a *Awasthi) Tick(now uint64) {
	if now-a.last < a.epoch {
		return
	}
	a.last = now
	a.migrate()
}

// migrate moves the hottest pages toward their accessing core.
func (a *Awasthi) migrate() {
	var hots []int32
	for i := range a.pages {
		if a.pages[i].count >= 16 {
			hots = append(hots, int32(i))
		}
	}
	// Hottest first; ties by page, so the order is total.
	slices.SortFunc(hots, func(i, j int32) int {
		p, q := &a.pages[i], &a.pages[j]
		if c := cmp.Compare(q.count, p.count); c != 0 {
			return c
		}
		return cmp.Compare(p.pg, q.pg)
	})
	// Per-bank inbound budget this epoch (alphaB of bank capacity).
	budget := make([]int, a.chip.NBanks())
	maxIn := int(alphaB * float64(a.chip.BankLines()) / addr.LinesPerPage)
	for b := range budget {
		budget[b] = maxIn
	}
	const maxMigrations = 256
	migrated := 0
	m := a.chip.Mesh
	for _, i := range hots {
		if migrated >= maxMigrations {
			break
		}
		p := &a.pages[i]
		core := int(p.core)
		cur := int(p.bank)
		curScore := a.score(core, cur)
		// Find the bank with the best distance/pressure score.
		best, bestScore := cur, curScore
		for _, b := range m.BanksByDistance(core) {
			if b == cur || budget[b] <= 0 {
				continue
			}
			if s := a.score(core, b); s < bestScore {
				best, bestScore = b, s
			}
		}
		if best == cur {
			continue
		}
		// Benefit: accesses x saved score; cost: copying the page.
		benefit := float64(p.count) * (curScore - bestScore)
		cost := alphaA * float64(addr.LinesPerPage) *
			float64(2*noc.HopLatency(m.Hops2(cur, best)))
		if benefit <= cost {
			continue
		}
		a.movePage(p, best)
		budget[best]--
		migrated++
	}
	// Decay heat so stale pages do not dominate future epochs.
	for i := range a.pages {
		a.pages[i].count /= 2
	}
}

// movePage re-homes a page: resident lines are copied to the new bank
// (charged as reads+writes+hops) and invalidated in the old one.
func (a *Awasthi) movePage(p *pageStat, to int) {
	from := int(p.bank)
	a.Migrations++
	p.bank = int32(to)
	a.bankPages[from]--
	a.bankPages[to]++
	first := addr.FirstLine(p.pg)
	hops := a.chip.Mesh.Hops2(from, to)
	moved := 0
	for i := 0; i < addr.LinesPerPage; i++ {
		l := first + addr.Line(i)
		if present, dirty := a.banks[from].Invalidate(l); present {
			moved++
			_, ev, evd := a.banks[to].Access(l, dirty)
			if evd && ev.Dirty {
				a.meter.AddDRAM(1)
				a.WritebacksMem++
			}
		}
	}
	a.meter.AddBank(2 * float64(moved))
	a.meter.AddHops(moved * hops)
}

var _ llc.LLC = (*Awasthi)(nil)
