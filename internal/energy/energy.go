// Package energy accounts for data-movement (uncore) energy, the metric the
// paper reports in every evaluation figure: cache bank dynamic energy,
// network energy, and main memory dynamic energy.
//
// The per-event constants follow the magnitudes the paper cites (Sec 1 and
// Appendix A): an on-chip access to a ~1MB cache costs about 1nJ, sending
// 256 bits across the chip costs ~300pJ (we charge per flit-hop on a mesh
// with 128-bit flits), and a DRAM access costs 20-50nJ. Relative costs are
// what matter for reproducing the paper's energy breakdowns; see docs/design.md.
package energy

// Per-event energies in picojoules.
const (
	// BankAccessPJ is the dynamic energy of one 512KB LLC bank lookup
	// (read or write of a 64B line plus tag match).
	BankAccessPJ = 400.0
	// BankTagProbePJ is a tag-only probe (e.g., a directory-filtered miss
	// or an IdealSPD multi-level lookup that misses).
	BankTagProbePJ = 80.0
	// HopPJ is the energy for one 64B line (4 flits of 128 bits) to
	// traverse one router+link hop. 256 bits across chip ~ 300pJ at ~10
	// hops gives ~30pJ per 2 flits per hop; a full line is 4 flits.
	HopPJ = 60.0
	// CtrlHopPJ is a control message (1 flit) traversing one hop.
	CtrlHopPJ = 15.0
	// DRAMAccessPJ is one main-memory line fetch: the *dynamic* DDR3L
	// energy of a 64B transfer (Micron power-calculator scale, excluding
	// background power, as McPAT-style uncore accounting does). Keeping
	// this at the dynamic-only level preserves the paper's breakdown
	// shape, where network and bank energy are visible next to memory.
	DRAMAccessPJ = 8000.0
	// DirLookupPJ is one directory lookup (IdealSPD).
	DirLookupPJ = 100.0
)

// Meter accumulates energy by component. The zero value is ready to use.
// Meter is not safe for concurrent use; the simulator owns one per run.
type Meter struct {
	BankPJ    float64
	NetworkPJ float64
	MemoryPJ  float64
}

// AddBank charges n bank accesses.
func (m *Meter) AddBank(n float64) { m.BankPJ += n * BankAccessPJ }

// AddTagProbe charges n tag-only probes.
func (m *Meter) AddTagProbe(n float64) { m.BankPJ += n * BankTagProbePJ }

// AddDirLookup charges n directory lookups.
func (m *Meter) AddDirLookup(n float64) { m.BankPJ += n * DirLookupPJ }

// AddHops charges a 64B data transfer over h hops.
func (m *Meter) AddHops(h int) { m.NetworkPJ += float64(h) * HopPJ }

// AddCtrlHops charges a control message over h hops.
func (m *Meter) AddCtrlHops(h int) { m.NetworkPJ += float64(h) * CtrlHopPJ }

// AddDRAM charges n main-memory accesses.
func (m *Meter) AddDRAM(n float64) { m.MemoryPJ += n * DRAMAccessPJ }

// Total returns total data-movement energy in picojoules.
func (m *Meter) Total() float64 { return m.BankPJ + m.NetworkPJ + m.MemoryPJ }

// Reset zeroes the meter.
func (m *Meter) Reset() { *m = Meter{} }
