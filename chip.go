package whirlpool

import (
	"fmt"
	"strconv"
	"strings"

	"whirlpool/internal/noc"
)

// Chip describes the simulated chip topology: a W×H mesh of LLC banks
// with cores attached around the border and memory controllers at the
// edge midpoints. The zero value is the paper's 4-core chip; build
// custom topologies with Mesh and the Cores/BankKB refiners:
//
//	whirlpool.Mesh(8, 8)               // 8×8 banks, 4 cores
//	whirlpool.Mesh(8, 8).Cores(8)      // 8 border cores
//	whirlpool.Mesh(4, 4).BankKB(1024)  // 1MB banks
//
// Chip is a value type: refiners return copies, so presets can be
// shared and specialized freely.
type Chip struct {
	d noc.Desc
}

// FourCore is the paper's 4-core, 5×5-bank, 512KB/bank chip (Fig 1).
func FourCore() Chip { return Chip{noc.Desc{Preset: "4core"}} }

// SixteenCore is the paper's 16-core, 9×9-bank chip (Fig 12).
func SixteenCore() Chip { return Chip{noc.Desc{Preset: "16core"}} }

// Mesh describes a custom w×h-bank mesh. Cores default to 4, spread
// evenly around the border; banks default to the paper's 512KB.
func Mesh(w, h int) Chip { return Chip{noc.Desc{W: w, H: h}} }

// Cores returns a copy of the chip with n border-attached cores.
func (c Chip) Cores(n int) Chip { c.d.Cores = n; return c }

// BankKB returns a copy of the chip with kb-kilobyte LLC banks.
func (c Chip) BankKB(kb int) Chip { c.d.BankKB = kb; return c }

// desc resolves the zero Chip to the paper's 4-core preset.
func (c Chip) desc() noc.Desc {
	if c.d.Preset == "" && c.d.W == 0 && c.d.H == 0 {
		c.d.Preset = "4core"
	}
	return c.d
}

// String renders the topology in the format ParseChip accepts
// ("4core", "16core:1024", "8x8:6", "8x8:6:1024").
func (c Chip) String() string {
	d := c.desc()
	bank := ""
	if d.BankKB != 0 && d.BankKB != 512 {
		bank = fmt.Sprintf(":%d", d.BankKB)
	}
	if d.Preset != "" {
		return d.Preset + bank
	}
	return fmt.Sprintf("%dx%d:%d%s", d.W, d.H, d.NCores(), bank)
}

// NCores reports how many cores the chip has — the bound on mix size
// and core pinning.
func (c Chip) NCores() int { return c.desc().NCores() }

// toNoc validates the topology and builds the internal chip. The zero
// Chip maps to the paper's exact 4-core layout, so default runs stay
// bit-identical to the presets.
func (c Chip) toNoc() (*noc.Chip, error) {
	chip, err := c.desc().Build()
	if err != nil {
		return nil, fmt.Errorf("whirlpool: %v", err)
	}
	return chip, nil
}

// ParseChip parses a topology string: "4core" or "16core" (optionally
// with a bank size, "16core:1024"), or "WxH[:cores[:bankKB]]" ("8x8",
// "8x8:6", "8x8:6:1024") — the format the CLI -chip flags accept and
// Chip.String round-trips. Parsing is strict: trailing garbage and
// non-positive fields are errors, not defaults.
func ParseChip(s string) (Chip, error) {
	bad := func(why string) (Chip, error) {
		return Chip{}, fmt.Errorf("whirlpool: bad chip %q: %s (want 4core[:bankKB], 16core[:bankKB], or WxH[:cores[:bankKB]])", s, why)
	}
	if s == "" {
		return FourCore(), nil
	}
	parts := strings.Split(s, ":")
	pos := func(p, what string) (int, error) {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return 0, fmt.Errorf("%s %q must be a positive integer", what, p)
		}
		return v, nil
	}

	var c Chip
	switch parts[0] {
	case "4core":
		c = FourCore()
	case "16core":
		c = SixteenCore()
	default:
		wh := strings.Split(parts[0], "x")
		if len(wh) != 2 {
			return bad("topology must be a preset or WxH")
		}
		w, err := pos(wh[0], "mesh width")
		if err != nil {
			return bad(err.Error())
		}
		h, err := pos(wh[1], "mesh height")
		if err != nil {
			return bad(err.Error())
		}
		c = Mesh(w, h)
		if len(parts) > 1 {
			n, err := pos(parts[1], "core count")
			if err != nil {
				return bad(err.Error())
			}
			c = c.Cores(n)
			parts = parts[1:]
		}
	}
	switch len(parts) {
	case 1:
	case 2:
		kb, err := pos(parts[1], "bank size")
		if err != nil {
			return bad(err.Error())
		}
		c = c.BankKB(kb)
	default:
		return bad("too many ':' fields")
	}
	if _, err := c.toNoc(); err != nil {
		return Chip{}, err
	}
	return c, nil
}
