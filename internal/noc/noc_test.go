package noc

import (
	"testing"
	"testing/quick"
)

func TestHops(t *testing.T) {
	if h := Hops(Coord{0, 0}, Coord{3, 4}); h != 7 {
		t.Fatalf("Hops = %d, want 7", h)
	}
	if h := Hops(Coord{2, 2}, Coord{2, 2}); h != 0 {
		t.Fatalf("Hops same coord = %d, want 0", h)
	}
}

func TestHopLatency(t *testing.T) {
	if HopLatency(0) != 0 {
		t.Fatal("zero hops should be zero latency")
	}
	// 1 hop: 1 link + 2 routers = 2 + 6 = 8.
	if HopLatency(1) != 8 {
		t.Fatalf("HopLatency(1) = %d, want 8", HopLatency(1))
	}
	if HopLatency(2) <= HopLatency(1) {
		t.Fatal("latency must grow with hops")
	}
}

func TestFourCoreMeshGeometry(t *testing.T) {
	m := FourCoreMesh()
	if m.W != 5 || m.H != 5 || m.NBanks != 25 {
		t.Fatalf("bad mesh: W=%d H=%d banks=%d", m.W, m.H, m.NBanks)
	}
	if len(m.Cores) != 4 {
		t.Fatalf("want 4 cores, got %d", len(m.Cores))
	}
}

func TestSixteenCoreMeshGeometry(t *testing.T) {
	m := SixteenCoreMesh()
	if m.W != 9 || m.H != 9 || m.NBanks != 81 {
		t.Fatalf("bad mesh: W=%d H=%d banks=%d", m.W, m.H, m.NBanks)
	}
	if len(m.Cores) != 16 {
		t.Fatalf("want 16 cores, got %d", len(m.Cores))
	}
	if len(m.MemCtls) != 4 {
		t.Fatalf("want 4 MCUs, got %d", len(m.MemCtls))
	}
}

func TestBanksByDistanceSorted(t *testing.T) {
	m := FourCoreMesh()
	for c := 0; c < 4; c++ {
		order := m.BanksByDistance(c)
		if len(order) != 25 {
			t.Fatalf("core %d: %d banks", c, len(order))
		}
		for i := 1; i < len(order); i++ {
			if m.CoreBankHops(c, order[i-1]) > m.CoreBankHops(c, order[i]) {
				t.Fatalf("core %d: order not sorted at %d", c, i)
			}
		}
	}
}

func TestBankCoordRoundTrip(t *testing.T) {
	m := FourCoreMesh()
	for b := 0; b < m.NBanks; b++ {
		if c := m.BankCoord(b); c.Y*m.W+c.X != b {
			t.Fatalf("bank %d round trip failed", b)
		}
	}
}

func TestChipGeometry(t *testing.T) {
	c := FourCoreChip()
	if c.TotalBytes() != 25*512*1024 {
		t.Fatalf("TotalBytes = %d", c.TotalBytes())
	}
	if c.BankLines() != 8192 {
		t.Fatalf("BankLines = %d", c.BankLines())
	}
	if c.TotalLines() != 25*8192 {
		t.Fatalf("TotalLines = %d", c.TotalLines())
	}
	if c.NCores() != 4 {
		t.Fatalf("NCores = %d", c.NCores())
	}
}

func TestBorderMeshPlacement(t *testing.T) {
	cases := []struct{ w, h, cores, wantMCs int }{
		{5, 5, 4, 1},
		{8, 8, 8, 4},
		{8, 4, 6, 4},
		{2, 2, 4, 1},
		{9, 9, 16, 4},
	}
	for _, c := range cases {
		m := BorderMesh(c.w, c.h, c.cores)
		if m.W != c.w || m.H != c.h || m.NBanks != c.w*c.h {
			t.Fatalf("%dx%d: bad geometry W=%d H=%d banks=%d", c.w, c.h, m.W, m.H, m.NBanks)
		}
		if len(m.Cores) != c.cores {
			t.Fatalf("%dx%d: %d cores, want %d", c.w, c.h, len(m.Cores), c.cores)
		}
		if len(m.MemCtls) != c.wantMCs {
			t.Fatalf("%dx%d/%d cores: %d MCUs, want %d", c.w, c.h, c.cores, len(m.MemCtls), c.wantMCs)
		}
		seen := map[Coord]bool{}
		for _, cc := range m.Cores {
			if cc.X != 0 && cc.X != c.w-1 && cc.Y != 0 && cc.Y != c.h-1 {
				t.Fatalf("%dx%d: core at %v is not on the border", c.w, c.h, cc)
			}
			if seen[cc] {
				t.Fatalf("%dx%d: two cores share coordinate %v", c.w, c.h, cc)
			}
			seen[cc] = true
		}
	}
}

func TestBorderMeshRejectsBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { BorderMesh(1, 5, 2) },
		func() { BorderMesh(5, 5, 0) },
		func() { BorderMesh(3, 3, MaxBorderCores(3, 3)+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad BorderMesh geometry did not panic")
				}
			}()
			f()
		}()
	}
}

func TestRectMeshBankCoordRoundTrip(t *testing.T) {
	m := BorderMesh(7, 3, 4)
	for b := 0; b < m.NBanks; b++ {
		if c := m.BankCoord(b); c.Y*m.W+c.X != b {
			t.Fatalf("bank %d round trip failed", b)
		}
	}
	c := m.BankCoord(m.NBanks - 1)
	if c.X != 6 || c.Y != 2 {
		t.Fatalf("last bank at %v, want {6 2}", c)
	}
}

func TestQuickHopsSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by uint8) bool {
		a := Coord{int(ax % 9), int(ay % 9)}
		b := Coord{int(bx % 9), int(by % 9)}
		return Hops(a, b) == Hops(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHops2TriangleInequality(t *testing.T) {
	m := FourCoreMesh()
	f := func(a, b, c uint8) bool {
		x, y, z := int(a%25), int(b%25), int(c%25)
		return m.Hops2(x, z) <= m.Hops2(x, y)+m.Hops2(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
