package netsim

import (
	"testing"
	"testing/quick"

	"bps/internal/obs"
	"bps/internal/sim"
)

func TestTransferTimeComponents(t *testing.T) {
	e := sim.NewEngine(1)
	reg := obs.Attach(e, obs.Options{}).Registry()
	f := NewFabric(e, Config{Bandwidth: 1e6, Latency: sim.Millisecond, MTU: 1 << 20, FrameOverhead: 0})
	a, b := f.NewNIC("a"), f.NewNIC("b")
	var took sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		t0 := p.Now()
		f.Transfer(p, a, b, 1e6) // 1 MB at 1 MB/s: 1 s per side
		took = p.Now() - t0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := 2*sim.Second + sim.Millisecond // tx + rx serialization + latency
	if took != want {
		t.Fatalf("transfer took %v, want %v", took, want)
	}
	if got := reg.Counter("net/fabric/bytes").Value(); got != 1e6 {
		t.Fatalf("fabric moved %d bytes, want 1e6", got)
	}
}

func TestZeroAndLoopbackTransfers(t *testing.T) {
	e := sim.NewEngine(1)
	reg := obs.Attach(e, obs.Options{}).Registry()
	f := NewFabric(e, DefaultGigabit())
	a := f.NewNIC("a")
	e.Spawn("p", func(p *sim.Proc) {
		f.Transfer(p, a, a, 4096) // loopback: cheap
		f.Transfer(p, a, a, 0)    // zero bytes: free
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() >= sim.Millisecond {
		t.Fatalf("loopback transfers took %v", e.Now())
	}
	if got := reg.Counter("net/fabric/bytes").Value(); got != 0 {
		t.Fatalf("loopback counted as sent: %d", got)
	}
}

func TestReceiverContention(t *testing.T) {
	// Two senders to one receiver must serialize on the receiver's rx NIC.
	run := func(nsenders int) sim.Time {
		e := sim.NewEngine(1)
		f := NewFabric(e, Config{Bandwidth: 1e6, Latency: 0, MTU: 1 << 20})
		dst := f.NewNIC("server")
		for i := 0; i < nsenders; i++ {
			src := f.NewNIC("client")
			e.Spawn("send", func(p *sim.Proc) {
				f.Transfer(p, src, dst, 1e6)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	one, two := run(1), run(2)
	// With independent tx sides, both messages arrive at the switch after
	// 1 s; the shared rx side then clocks them in sequentially.
	if two != one+sim.Second {
		t.Fatalf("2 senders %v, want %v (rx serialization)", two, one+sim.Second)
	}
}

func TestFrameOverhead(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFabric(e, Config{Bandwidth: 1e9, Latency: 0, MTU: 1000, FrameOverhead: sim.Microsecond})
	a, b := f.NewNIC("a"), f.NewNIC("b")
	e.Spawn("p", func(p *sim.Proc) {
		f.Transfer(p, a, b, 10_000) // 10 frames
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Serialization: 10 µs data + 10 µs frame overhead, both sides.
	want := 2 * (10*sim.Microsecond + 10*sim.Microsecond)
	if e.Now() != want {
		t.Fatalf("took %v, want %v", e.Now(), want)
	}
}

func TestNICBusyAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFabric(e, Config{Bandwidth: 1e6, Latency: sim.Millisecond, MTU: 1 << 20})
	a, b := f.NewNIC("a"), f.NewNIC("b")
	e.Spawn("p", func(p *sim.Proc) {
		f.Transfer(p, a, b, 500_000)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if tx, rx := a.tx.BusyTime(), b.rx.BusyTime(); tx != 500*sim.Millisecond || rx != 500*sim.Millisecond {
		t.Fatalf("busy: tx=%v rx=%v, want 500ms each", tx, rx)
	}
}

func TestBackplaneContention(t *testing.T) {
	// Two simultaneous 1 MB transfers between disjoint NIC pairs: with an
	// infinite backplane they finish together; with a 1 MB/s backplane the
	// second queues behind the first for the backplane stage.
	run := func(backplane float64) sim.Time {
		e := sim.NewEngine(1)
		f := NewFabric(e, Config{Bandwidth: 1e9, Latency: 0, MTU: 1 << 20, BackplaneRate: backplane})
		for i := 0; i < 2; i++ {
			src, dst := f.NewNIC("s"), f.NewNIC("d")
			e.Spawn("xfer", func(p *sim.Proc) {
				f.Transfer(p, src, dst, 1e6)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	free, limited := run(0), run(1e6)
	if limited < free+sim.Second {
		t.Fatalf("backplane-limited run %v vs free %v: no serialization", limited, free)
	}
}

// Validation: sustained one-way traffic from a single synchronous sender
// approaches half the line rate (store-and-forward pays tx then rx),
// while two overlapping senders to distinct receivers pipeline back up
// to the line rate per path.
func TestSustainedThroughputModel(t *testing.T) {
	const msg = 1 << 20
	const count = 64
	run := func(nstreams int) sim.Time {
		e := sim.NewEngine(1)
		f := NewFabric(e, Config{Bandwidth: 100e6, Latency: 0, MTU: 1 << 20})
		for s := 0; s < nstreams; s++ {
			src, dst := f.NewNIC("s"), f.NewNIC("d")
			e.Spawn("stream", func(p *sim.Proc) {
				for i := 0; i < count; i++ {
					f.Transfer(p, src, dst, msg)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	oneStream := run(1)
	perStream := float64(count*msg) / oneStream.Seconds()
	if perStream < 45e6 || perStream > 55e6 {
		t.Fatalf("single synchronous stream = %.1f MB/s, want ≈ 50 (half line rate)", perStream/1e6)
	}
	// Independent streams don't interfere (separate NIC pairs).
	two := run(2)
	if two != oneStream {
		t.Fatalf("independent streams interfered: %v vs %v", two, oneStream)
	}
}

// Property: transfer time is monotone in message size and zero-size
// transfers are free.
func TestTransferMonotoneProperty(t *testing.T) {
	prop := func(a, b uint32) bool {
		sa, sb := int64(a%(8<<20))+1, int64(b%(8<<20))+1
		if sa > sb {
			sa, sb = sb, sa
		}
		measure := func(size int64) sim.Time {
			e := sim.NewEngine(1)
			f := NewFabric(e, DefaultGigabit())
			src, dst := f.NewNIC("a"), f.NewNIC("b")
			e.Spawn("x", func(p *sim.Proc) { f.Transfer(p, src, dst, size) })
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			return e.Now()
		}
		return measure(sa) <= measure(sb)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// fixedFaults is a deterministic LinkFaults: every transfer pays the
// given retransmissions and delay.
type fixedFaults struct {
	retransmits int
	delay       sim.Time
}

func (f fixedFaults) Perturb(int64) (int, sim.Time) { return f.retransmits, f.delay }

// TestLinkFaultsExtendTransfer pins the fault hook's timing model: one
// retransmission doubles the tx serialization (the rx side clocks the
// surviving copy once), and a delay is added to the switch latency.
func TestLinkFaultsExtendTransfer(t *testing.T) {
	run := func(lf LinkFaults) sim.Time {
		e := sim.NewEngine(1)
		f := NewFabric(e, Config{Bandwidth: 1e6, Latency: sim.Millisecond, MTU: 1 << 20})
		if lf != nil {
			f.SetFaults(lf)
		}
		a, b := f.NewNIC("a"), f.NewNIC("b")
		e.Spawn("p", func(p *sim.Proc) {
			f.Transfer(p, a, b, 1e6) // 1 s serialization per side
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	healthy := run(nil)
	if clean := run(fixedFaults{}); clean != healthy {
		t.Fatalf("no-op faults changed timing: %v vs %v", clean, healthy)
	}
	if dropped := run(fixedFaults{retransmits: 1}); dropped != healthy+sim.Second {
		t.Fatalf("1 retransmit: %v, want %v", dropped, healthy+sim.Second)
	}
	if delayed := run(fixedFaults{delay: 5 * sim.Millisecond}); delayed != healthy+5*sim.Millisecond {
		t.Fatalf("5ms delay: %v, want %v", delayed, healthy+5*sim.Millisecond)
	}
}
