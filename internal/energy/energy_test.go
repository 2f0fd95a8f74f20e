package energy

import (
	"math"
	"testing"
)

func TestMeterComponents(t *testing.T) {
	var m Meter
	m.AddBank(2)
	m.AddHops(3)
	m.AddDRAM(1)
	if m.BankPJ != 2*BankAccessPJ {
		t.Fatalf("bank = %v", m.BankPJ)
	}
	if m.NetworkPJ != 3*HopPJ {
		t.Fatalf("network = %v", m.NetworkPJ)
	}
	if m.MemoryPJ != DRAMAccessPJ {
		t.Fatalf("memory = %v", m.MemoryPJ)
	}
	if math.Abs(m.Total()-(m.BankPJ+m.NetworkPJ+m.MemoryPJ)) > 1e-9 {
		t.Fatal("total != sum of components")
	}
}

func TestMeterAddAndReset(t *testing.T) {
	var a Meter
	a.AddBank(1)
	a.AddDRAM(2)
	if a.MemoryPJ != 2*DRAMAccessPJ {
		t.Fatal("AddDRAM did not accumulate")
	}
	a.Reset()
	if a.Total() != 0 {
		t.Fatal("Reset did not zero")
	}
}

func TestRelativeMagnitudes(t *testing.T) {
	// The paper's premise: DRAM ≫ bank access ≫ hop; tag probe < bank.
	if DRAMAccessPJ < 10*BankAccessPJ {
		t.Fatal("DRAM should dominate bank accesses")
	}
	if BankAccessPJ < HopPJ {
		t.Fatal("bank access should exceed one hop")
	}
	if BankTagProbePJ >= BankAccessPJ {
		t.Fatal("tag probe should be cheaper than a full access")
	}
}
