// Package noc models the on-chip mesh network connecting cores, LLC banks,
// and memory controllers: a k×k mesh with X-Y routing, 3-cycle pipelined
// routers and 2-cycle links (Table 3).
//
// The 4-core chip is a 5×5 mesh of banks with 4 cores attached on the left
// edge (Fig 1); the 16-core chip is a 9×9 mesh with 16 cores around the
// border (Fig 12). Cores and memory controllers attach at fixed mesh
// coordinates; distances are precomputed.
package noc

const (
	// RouterCycles is the pipelined router traversal latency per hop.
	RouterCycles = 3
	// LinkCycles is the link traversal latency per hop.
	LinkCycles = 2
)

// Coord is a mesh coordinate (column x, row y).
type Coord struct{ X, Y int }

// Mesh is a W×H array of LLC banks with cores and memory controllers
// attached at fixed coordinates. All fields are immutable after New.
type Mesh struct {
	W, H    int     // mesh dimensions: W columns × H rows of banks
	NBanks  int     // W*H
	Cores   []Coord // attachment point of each core
	MemCtls []Coord // attachment point of each memory controller

	// coreBankHops[c][b] is the hop count from core c to bank b.
	coreBankHops [][]int
	// coreBanksByDist[c] lists bank ids sorted by distance from core c
	// (ties broken by bank id for determinism).
	coreBanksByDist [][]int
	// bankMemHops[b] is the hop count from bank b to its closest memory
	// controller.
	bankMemHops []int
	// coreMemHops[c] is the hop count from core c to its closest
	// memory controller.
	coreMemHops []int
}

// BankCoord returns the mesh coordinate of bank b (row-major).
func (m *Mesh) BankCoord(b int) Coord { return Coord{b % m.W, b / m.W} }

// Hops returns the X-Y routing hop count between two coordinates.
func Hops(a, b Coord) int {
	dx := a.X - b.X
	if dx < 0 {
		dx = -dx
	}
	dy := a.Y - b.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// HopLatency returns the network latency in cycles for h hops (one way).
func HopLatency(h int) uint64 {
	if h == 0 {
		return 0
	}
	return uint64(h*LinkCycles + (h+1)*RouterCycles)
}

// New builds a square k×k mesh with the given attachment points.
func New(k int, cores, memCtls []Coord) *Mesh {
	return NewRect(k, k, cores, memCtls)
}

// NewRect builds a w×h mesh with the given attachment points.
func NewRect(w, h int, cores, memCtls []Coord) *Mesh {
	m := &Mesh{
		W:       w,
		H:       h,
		NBanks:  w * h,
		Cores:   append([]Coord(nil), cores...),
		MemCtls: append([]Coord(nil), memCtls...),
	}
	m.coreBankHops = make([][]int, len(cores))
	m.coreBanksByDist = make([][]int, len(cores))
	for c, cc := range cores {
		hops := make([]int, m.NBanks)
		order := make([]int, m.NBanks)
		for b := 0; b < m.NBanks; b++ {
			hops[b] = Hops(cc, m.BankCoord(b))
			order[b] = b
		}
		// Insertion sort by (distance, id): NBanks is small (25 or 81).
		for i := 1; i < len(order); i++ {
			for j := i; j > 0; j-- {
				a, b := order[j-1], order[j]
				if hops[a] > hops[b] || (hops[a] == hops[b] && a > b) {
					order[j-1], order[j] = b, a
				} else {
					break
				}
			}
		}
		m.coreBankHops[c] = hops
		m.coreBanksByDist[c] = order
	}
	m.bankMemHops = make([]int, m.NBanks)
	for b := 0; b < m.NBanks; b++ {
		best := 1 << 30
		for _, mc := range memCtls {
			if h := Hops(m.BankCoord(b), mc); h < best {
				best = h
			}
		}
		m.bankMemHops[b] = best
	}
	m.coreMemHops = make([]int, len(cores))
	for c, cc := range cores {
		best := 1 << 30
		for _, mc := range memCtls {
			if h := Hops(cc, mc); h < best {
				best = h
			}
		}
		m.coreMemHops[c] = best
	}
	return m
}

// CoreBankHops returns the hop count from core c to bank b.
func (m *Mesh) CoreBankHops(c, b int) int { return m.coreBankHops[c][b] }

// Hops2 returns the hop count between two banks.
func (m *Mesh) Hops2(a, b int) int {
	return Hops(m.BankCoord(a), m.BankCoord(b))
}

// BanksByDistance returns bank ids sorted by distance from core c.
// The returned slice is shared; callers must not modify it.
func (m *Mesh) BanksByDistance(c int) []int { return m.coreBanksByDist[c] }

// BankMemHops returns the hop count from bank b to its nearest memory
// controller.
func (m *Mesh) BankMemHops(b int) int { return m.bankMemHops[b] }

// CoreMemHops returns the hop count from core c to its nearest memory
// controller (used when an access bypasses the LLC).
func (m *Mesh) CoreMemHops(c int) int { return m.coreMemHops[c] }

// borderCoords lists the border cells of a w×h mesh clockwise from the
// top-left corner: top row left→right, right column top→bottom, bottom
// row right→left, left column bottom→top.
func borderCoords(w, h int) []Coord {
	out := make([]Coord, 0, 2*(w+h)-4)
	for x := 0; x < w; x++ {
		out = append(out, Coord{x, 0})
	}
	for y := 1; y < h; y++ {
		out = append(out, Coord{w - 1, y})
	}
	for x := w - 2; x >= 0; x-- {
		out = append(out, Coord{x, h - 1})
	}
	for y := h - 2; y >= 1; y-- {
		out = append(out, Coord{0, y})
	}
	return out
}

// MaxBorderCores returns how many cores a w×h mesh can attach (one per
// border cell).
func MaxBorderCores(w, h int) int { return 2*(w+h) - 4 }

// BorderMesh builds a w×h mesh with nCores cores spread evenly around
// the border (clockwise from the top-left corner) and memory
// controllers at the edge midpoints: one controller (right edge middle)
// for chips of up to 4 cores, four (one per edge) beyond that,
// mirroring the paper's 4- and 16-core configurations. It is the
// deterministic placement behind custom chip topologies; the paper's
// exact chips remain FourCoreMesh and SixteenCoreMesh.
func BorderMesh(w, h, nCores int) *Mesh {
	if w < 2 || h < 2 {
		panic("noc: BorderMesh needs at least a 2x2 mesh")
	}
	border := borderCoords(w, h)
	if nCores < 1 || nCores > len(border) {
		panic("noc: BorderMesh core count must be in 1..2(w+h)-4")
	}
	cores := make([]Coord, nCores)
	for i := range cores {
		cores[i] = border[i*len(border)/nCores]
	}
	var mem []Coord
	if nCores <= 4 {
		mem = []Coord{{w - 1, h / 2}}
	} else {
		mem = []Coord{{w / 2, 0}, {w - 1, h / 2}, {w / 2, h - 1}, {0, h / 2}}
	}
	return NewRect(w, h, cores, mem)
}

// FourCoreMesh returns the 4-core, 5×5-bank chip of Fig 1: cores attached
// along the left edge, one memory controller on the right edge middle.
func FourCoreMesh() *Mesh {
	cores := []Coord{{0, 0}, {0, 1}, {0, 3}, {0, 4}}
	mem := []Coord{{4, 2}}
	return New(5, cores, mem)
}

// SixteenCoreMesh returns the 16-core, 9×9-bank chip of Fig 12: cores
// around the border (4 per side), 4 memory controllers at edge midpoints.
func SixteenCoreMesh() *Mesh {
	cores := []Coord{
		{1, 0}, {3, 0}, {5, 0}, {7, 0}, // top
		{8, 1}, {8, 3}, {8, 5}, {8, 7}, // right
		{7, 8}, {5, 8}, {3, 8}, {1, 8}, // bottom
		{0, 7}, {0, 5}, {0, 3}, {0, 1}, // left
	}
	mem := []Coord{{4, 0}, {8, 4}, {4, 8}, {0, 4}}
	return New(9, cores, mem)
}
