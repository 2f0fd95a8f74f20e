package llc

import (
	"testing"

	"whirlpool/internal/addr"
	"whirlpool/internal/mem"
)

func TestThreadPrivate(t *testing.T) {
	k := ThreadPrivate(3, addr.Line(100))
	if k.Core != 3 || k.Pool != 0 {
		t.Fatalf("key = %+v", k)
	}
}

func TestProcessShared(t *testing.T) {
	k := ProcessShared(3, addr.Line(100))
	if k.Core != SharedVC || k.Pool != 0 {
		t.Fatalf("key = %+v", k)
	}
}

func TestPoolPrivate(t *testing.T) {
	poolOf := func(l addr.Line) mem.PoolID { return mem.PoolID(uint64(l) % 4) }
	c := PoolPrivate(poolOf)
	k := c(1, addr.Line(6))
	if k.Core != 1 || k.Pool != 2 {
		t.Fatalf("key = %+v", k)
	}
	// Same line from another core: different VC (thread-private pools).
	k2 := c(2, addr.Line(6))
	if k2.Core != 2 || k2.Pool != 2 {
		t.Fatalf("key = %+v", k2)
	}
}
