package noc

import (
	"fmt"

	"whirlpool/internal/addr"
)

// Table 3 latency parameters shared by all LLC organizations.
const (
	// BankLatency is one LLC bank access (9-cycle zcache bank).
	BankLatency = 9
	// MemLatency is main memory zero-load latency in cycles.
	MemLatency = 120
	// DirLatency is a directory lookup (IdealSPD).
	DirLatency = 6
)

// Chip bundles the mesh with bank geometry; it is the static hardware
// configuration every scheme is built against.
type Chip struct {
	Mesh      *Mesh
	BankBytes uint64
}

// NBanks returns the number of LLC banks.
func (c *Chip) NBanks() int { return c.Mesh.NBanks }

// NCores returns the number of cores.
func (c *Chip) NCores() int { return len(c.Mesh.Cores) }

// BankLines returns one bank's capacity in cache lines.
func (c *Chip) BankLines() uint64 { return c.BankBytes / addr.LineBytes }

// TotalLines returns the whole LLC's capacity in lines.
func (c *Chip) TotalLines() uint64 { return c.BankLines() * uint64(c.NBanks()) }

// TotalBytes returns the whole LLC's capacity in bytes.
func (c *Chip) TotalBytes() uint64 { return c.BankBytes * uint64(c.NBanks()) }

// Custom-chip limits shared by every surface that builds topologies
// (the public Chip type, spec files, the CLIs).
const (
	// MinMeshSide / MaxMeshSide bound custom mesh dimensions.
	MinMeshSide = 2
	MaxMeshSide = 64
	// MinBankBytes is the smallest supported LLC bank.
	MinBankBytes = 64 * addr.KB
)

// Desc describes a chip: one of the paper's presets or a custom mesh.
// It is the one home of the rules every surface that builds topologies
// shares (the public Chip type, spec-file mixes): the preset names and
// their core counts, the 4-core default for meshes, and the bank-size
// minimum and override.
type Desc struct {
	// Preset names a paper chip: "4core" (Fig 1) or "16core" (Fig 12).
	// Empty means a custom W×H-bank mesh.
	Preset string
	W, H   int
	// Cores attaches this many cores around a mesh's border (0 means 4).
	// A preset takes 0 or its own count.
	Cores int
	// BankKB sizes each LLC bank in KB (0 means the paper's 512KB).
	BankKB int
}

// NCores reports the core count the description resolves to.
func (d Desc) NCores() int {
	switch {
	case d.Preset == "4core":
		return 4
	case d.Preset == "16core":
		return 16
	case d.Cores == 0:
		return 4
	}
	return d.Cores
}

// Build checks the description and builds the chip.
func (d Desc) Build() (*Chip, error) {
	if d.BankKB < 0 || (d.BankKB != 0 && uint64(d.BankKB)*addr.KB < MinBankBytes) {
		return nil, fmt.Errorf("bank_kb %d out of range (want >= %d)", d.BankKB, MinBankBytes/addr.KB)
	}
	var chip *Chip
	switch d.Preset {
	case "":
		if d.W < MinMeshSide || d.H < MinMeshSide || d.W > MaxMeshSide || d.H > MaxMeshSide {
			return nil, fmt.Errorf("mesh %dx%d out of range (want %d..%d per side)", d.W, d.H, MinMeshSide, MaxMeshSide)
		}
		n := d.NCores()
		if max := MaxBorderCores(d.W, d.H); n < 1 || n > max {
			return nil, fmt.Errorf("%d cores do not fit a %dx%d mesh border (max %d)", n, d.W, d.H, max)
		}
		chip = &Chip{Mesh: BorderMesh(d.W, d.H, n), BankBytes: 512 * addr.KB}
	case "4core":
		chip = FourCoreChip()
	case "16core":
		chip = SixteenCoreChip()
	default:
		return nil, fmt.Errorf("unknown chip preset %q (valid: 4core, 16core)", d.Preset)
	}
	if d.Preset != "" && (d.W != 0 || d.H != 0 || (d.Cores != 0 && d.Cores != chip.NCores())) {
		return nil, fmt.Errorf("chip preset %q cannot combine with a mesh or a core count other than %d", d.Preset, chip.NCores())
	}
	if d.BankKB != 0 {
		chip.BankBytes = uint64(d.BankKB) * addr.KB
	}
	return chip, nil
}

// FourCoreChip is the 4-core, 25-bank, 512KB/bank chip of Fig 1
// (3.1MB/core).
func FourCoreChip() *Chip {
	return &Chip{Mesh: FourCoreMesh(), BankBytes: 512 * addr.KB}
}

// SixteenCoreChip is the 16-core, 81-bank chip of Fig 12 (2.5MB/core).
func SixteenCoreChip() *Chip {
	return &Chip{Mesh: SixteenCoreMesh(), BankBytes: 512 * addr.KB}
}
