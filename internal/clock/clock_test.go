package clock

import (
	"testing"

	"bps/internal/sim"
)

func TestVirtualLane(t *testing.T) {
	v := NewVirtualLane(0)
	if v.Now() != 0 {
		t.Fatalf("fresh lane Now = %v", v.Now())
	}
	v.Sleep(3 * sim.Millisecond)
	v.Sleep(0)
	if v.Now() != 3*sim.Millisecond {
		t.Fatalf("Now = %v, want 3ms", v.Now())
	}
	v2 := NewVirtualLane(sim.Second)
	if v2.Now() != sim.Second {
		t.Fatalf("lane with start offset: Now = %v", v2.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("negative Sleep did not panic")
		}
	}()
	v.Sleep(-1)
}

func TestWall(t *testing.T) {
	w := NewWall()
	a := w.Now()
	if a < 0 {
		t.Fatalf("wall Now went backwards from the origin: %v", a)
	}
	w.Sleep(2 * sim.Millisecond)
	b := w.Now()
	if b-a < 2*sim.Millisecond {
		t.Fatalf("Sleep(2ms) advanced only %v", b-a)
	}
	// Monotone and comparable across the shared instance.
	if c := w.Now(); c < b {
		t.Fatalf("wall time regressed: %v then %v", b, c)
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{PerOp: 100 * sim.Microsecond, BytesPerSec: 1e6} // 1 MB/s
	if got := m.Cost(0); got != 100*sim.Microsecond {
		t.Fatalf("Cost(0) = %v, want the per-op cost alone", got)
	}
	// 1e6 bytes at 1 MB/s = 1 s, plus the per-op cost.
	if got, want := m.Cost(1_000_000), sim.Second+100*sim.Microsecond; got != want {
		t.Fatalf("Cost(1MB) = %v, want %v", got, want)
	}
	// Zero rate charges only the per-op cost regardless of size.
	m2 := CostModel{PerOp: 5 * sim.Microsecond}
	if got := m2.Cost(1 << 30); got != 5*sim.Microsecond {
		t.Fatalf("rate-less Cost = %v, want 5µs", got)
	}
}
