package device

import (
	"testing"
	"testing/quick"

	"bps/internal/obs"
	"bps/internal/sim"
)

func runOne(t *testing.T, body func(e *sim.Engine, p *sim.Proc)) sim.Time {
	t.Helper()
	return runOn(t, sim.NewEngine(1), body)
}

// runObserved is runOne on an engine with an observer attached, so the
// devices body builds count into the returned registry.
func runObserved(t *testing.T, body func(e *sim.Engine, p *sim.Proc)) (sim.Time, *obs.Registry) {
	t.Helper()
	e := sim.NewEngine(1)
	reg := obs.Attach(e, obs.Options{}).Registry()
	return runOn(t, e, body), reg
}

func runOn(t *testing.T, e *sim.Engine, body func(e *sim.Engine, p *sim.Proc)) sim.Time {
	t.Helper()
	e.Spawn("test", func(p *sim.Proc) { body(e, p) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Now()
}

func TestRequestValidate(t *testing.T) {
	cases := []struct {
		req  Request
		ok   bool
		name string
	}{
		{Request{Offset: 0, Size: 512}, true, "basic"},
		{Request{Offset: 0, Size: 0}, false, "zero size"},
		{Request{Offset: -1, Size: 512}, false, "negative offset"},
		{Request{Offset: 1024, Size: 512}, false, "past capacity"},
		{Request{Offset: 512, Size: 512}, true, "exactly at capacity"},
	}
	for _, c := range cases {
		err := c.req.Validate(1024)
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestHDDSequentialFasterThanRandom(t *testing.T) {
	const n = 64
	const size = 64 << 10

	seqTime := runOne(t, func(e *sim.Engine, p *sim.Proc) {
		d := NewHDD(e, DefaultHDD())
		for i := 0; i < n; i++ {
			if err := d.Access(p, Request{Offset: int64(i) * size, Size: size}); err != nil {
				t.Error(err)
			}
		}
	})
	randTime := runOne(t, func(e *sim.Engine, p *sim.Proc) {
		d := NewHDD(e, DefaultHDD())
		for i := 0; i < n; i++ {
			off := (int64(i*7919) % 1000) * 100e6 / 1000 * 2 // scattered offsets
			off -= off % SectorSize
			if err := d.Access(p, Request{Offset: off, Size: size}); err != nil {
				t.Error(err)
			}
		}
	})
	if seqTime*3 > randTime {
		t.Fatalf("sequential (%v) not much faster than random (%v) on HDD", seqTime, randTime)
	}
}

func TestHDDZonedRate(t *testing.T) {
	e := sim.NewEngine(1)
	d := NewHDD(e, DefaultHDD())
	outer := d.rateAt(0)
	inner := d.rateAt(d.Capacity())
	if outer != d.cfg.OuterRate {
		t.Fatalf("outer rate = %v, want %v", outer, d.cfg.OuterRate)
	}
	want := d.cfg.OuterRate * d.cfg.InnerRateRatio
	if inner != want {
		t.Fatalf("inner rate = %v, want %v", inner, want)
	}
	if mid := d.rateAt(d.Capacity() / 2); mid <= inner || mid >= outer {
		t.Fatalf("mid-zone rate %v not between %v and %v", mid, inner, outer)
	}
}

func TestHDDSeekMonotone(t *testing.T) {
	e := sim.NewEngine(1)
	d := NewHDD(e, DefaultHDD())
	prev := sim.Time(-1)
	for _, dist := range []int64{0, 1 << 20, 1 << 30, 100e9, 250e9} {
		s := d.seekTime(dist)
		if s < prev {
			t.Fatalf("seekTime not monotone at distance %d: %v < %v", dist, s, prev)
		}
		prev = s
	}
	if d.seekTime(250e9) > d.cfg.SeekMax+d.cfg.SettleTime {
		t.Fatalf("full-stroke seek %v exceeds configured max", d.seekTime(250e9))
	}
}

func TestHDDStatsAndErrors(t *testing.T) {
	_, reg := runObserved(t, func(e *sim.Engine, p *sim.Proc) {
		d := NewHDD(e, DefaultHDD())
		if err := d.Access(p, Request{Offset: 0, Size: 4096}); err != nil {
			t.Error(err)
		}
		if err := d.Access(p, Request{Offset: 4096, Size: 8192, Write: true}); err != nil {
			t.Error(err)
		}
		if err := d.Access(p, Request{Offset: -5, Size: 10}); err == nil {
			t.Error("invalid request did not error")
		}
	})
	read := reg.Counter("device/hdd/bytes_read").Value()
	written := reg.Counter("device/hdd/bytes_written").Value()
	if read != 4096 || written != 8192 || reg.Counter("device/hdd/errors").Value() != 1 {
		t.Errorf("bytes_read=%d bytes_written=%d errors=%d", read, written, reg.Counter("device/hdd/errors").Value())
	}
	if ops := reg.Histogram("device/hdd/service_ns").Count(); ops != 2 || read+written != 12288 {
		t.Errorf("ops=%d bytes=%d", ops, read+written)
	}
}

func TestHDDContentionSerializes(t *testing.T) {
	// Two concurrent streams on one HDD must take about as long as the two
	// run back to back (single head).
	both := func(nprocs int) sim.Time {
		e := sim.NewEngine(1)
		d := NewHDD(e, DefaultHDD())
		for pid := 0; pid < nprocs; pid++ {
			base := int64(pid) * 50e9
			e.Spawn("s", func(p *sim.Proc) {
				for i := 0; i < 32; i++ {
					if err := d.Access(p, Request{Offset: base + int64(i)*65536, Size: 65536}); err != nil {
						t.Error(err)
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	one, two := both(1), both(2)
	if two < one*3/2 {
		t.Fatalf("2-stream HDD time %v did not reflect contention vs 1-stream %v", two, one)
	}
}

func TestSSDFasterThanHDDSmallReads(t *testing.T) {
	small := func(mk func(e *sim.Engine) Device) sim.Time {
		return runOne(t, func(e *sim.Engine, p *sim.Proc) {
			d := mk(e)
			for i := 0; i < 128; i++ {
				off := int64(i*7919%1024) * 4096
				if err := d.Access(p, Request{Offset: off, Size: 4096}); err != nil {
					t.Error(err)
				}
			}
		})
	}
	hdd := small(func(e *sim.Engine) Device { return NewHDD(e, DefaultHDD()) })
	ssd := small(func(e *sim.Engine) Device { return NewSSD(e, DefaultSSD()) })
	if ssd*20 > hdd {
		t.Fatalf("SSD random 4K (%v) should be ≫ faster than HDD (%v)", ssd, hdd)
	}
}

func TestSSDFanout(t *testing.T) {
	e := sim.NewEngine(1)
	d := NewSSD(e, DefaultSSD())
	cases := []struct {
		size int64
		want int
	}{
		{1, 1},
		{64 << 10, 1},
		{64<<10 + 1, 2},
		{256 << 10, 4},
		{8 << 20, 8}, // capped at Channels
	}
	for _, c := range cases {
		if got := d.fanout(c.size); got != c.want {
			t.Errorf("fanout(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestSSDLargeRequestsUseParallelism(t *testing.T) {
	// An 8 MiB read should be far faster than 128 sequential 64 KiB reads
	// because it stripes across all channels.
	bigTime := runOne(t, func(e *sim.Engine, p *sim.Proc) {
		d := NewSSD(e, DefaultSSD())
		if err := d.Access(p, Request{Offset: 0, Size: 8 << 20}); err != nil {
			t.Error(err)
		}
	})
	smallTime := runOne(t, func(e *sim.Engine, p *sim.Proc) {
		d := NewSSD(e, DefaultSSD())
		for i := 0; i < 128; i++ {
			if err := d.Access(p, Request{Offset: int64(i) * (64 << 10), Size: 64 << 10}); err != nil {
				t.Error(err)
			}
		}
	})
	if bigTime*4 > smallTime {
		t.Fatalf("8MiB single read %v vs 128×64KiB %v: striping not effective", bigTime, smallTime)
	}
}

func TestSSDConcurrencyScales(t *testing.T) {
	run := func(nprocs int) sim.Time {
		e := sim.NewEngine(1)
		d := NewSSD(e, DefaultSSD())
		for pid := 0; pid < nprocs; pid++ {
			base := int64(pid) * 10e9
			e.Spawn("s", func(p *sim.Proc) {
				for i := 0; i < 64; i++ {
					if err := d.Access(p, Request{Offset: base + int64(i)*4096, Size: 4096}); err != nil {
						t.Error(err)
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	one, four := run(1), run(4)
	// Four independent 4K streams on an 8-channel SSD should not take 4×.
	if four > one*2 {
		t.Fatalf("4-stream SSD time %v vs 1-stream %v: channels not parallel", four, one)
	}
}

func TestRAMDisk(t *testing.T) {
	total, reg := runObserved(t, func(e *sim.Engine, p *sim.Proc) {
		d := NewRAMDisk(e, "ram", 1<<30, sim.Microsecond, 10e9)
		if err := d.Access(p, Request{Offset: 0, Size: 10 << 20}); err != nil {
			t.Error(err)
		}
		if err := d.Access(p, Request{Offset: 1 << 30, Size: 1}); err == nil {
			t.Error("out-of-capacity access did not error")
		}
	})
	if got := reg.Counter("device/ram/bytes_read").Value(); got != 10<<20 {
		t.Errorf("bytes_read = %d", got)
	}
	// 10 MiB at 10 GB/s ≈ 1.05 ms plus 1 µs latency.
	if total < sim.Millisecond || total > 2*sim.Millisecond {
		t.Fatalf("RAM disk 10MiB time = %v", total)
	}
}

// Property: HDD service time decomposition — for any two request sizes at
// the same location with the head parked there, the larger request never
// finishes first (transfer is monotone in size).
func TestHDDServiceMonotoneInSize(t *testing.T) {
	prop := func(a, b uint32) bool {
		sa, sb := int64(a%(8<<20))+1, int64(b%(8<<20))+1
		if sa > sb {
			sa, sb = sb, sa
		}
		e := sim.NewEngine(7)
		d := NewHDD(e, DefaultHDD())
		// Park head at 0 and stream from there: deterministic, no rotation.
		ta := d.serviceTime(Request{Offset: 0, Size: sa})
		tb := d.serviceTime(Request{Offset: 0, Size: sb})
		return ta <= tb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SSD fanout is within [1, Channels] and monotone in size.
func TestSSDFanoutProperty(t *testing.T) {
	e := sim.NewEngine(1)
	d := NewSSD(e, DefaultSSD())
	prop := func(a, b uint32) bool {
		sa, sb := int64(a)+1, int64(b)+1
		if sa > sb {
			sa, sb = sb, sa
		}
		fa, fb := d.fanout(sa), d.fanout(sb)
		return fa >= 1 && fb <= d.cfg.Channels && fa <= fb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceDeterminism(t *testing.T) {
	run := func() sim.Time {
		e := sim.NewEngine(99)
		d := NewHDD(e, DefaultHDD())
		e.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				off := int64(i*104729%4000) * 1e6
				off -= off % SectorSize
				if err := d.Access(p, Request{Offset: off, Size: 65536}); err != nil {
					t.Error(err)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed gave different makespans: %v vs %v", a, b)
	}
}

func TestSSDWriteAmplificationSlowsWrites(t *testing.T) {
	write := func(wa float64) sim.Time {
		return runOne(t, func(e *sim.Engine, p *sim.Proc) {
			cfg := DefaultSSD()
			cfg.WriteAmplification = wa
			d := NewSSD(e, cfg)
			for i := 0; i < 16; i++ {
				if err := d.Access(p, Request{Offset: int64(i) * (1 << 20), Size: 1 << 20, Write: true}); err != nil {
					t.Error(err)
				}
			}
		})
	}
	plain, amplified := write(1), write(3)
	if amplified < plain*2 {
		t.Fatalf("WA=3 writes (%v) not ≫ slower than WA=1 (%v)", amplified, plain)
	}
}

func TestSSDNANDWrittenTracksAmplification(t *testing.T) {
	runObserved(t, func(e *sim.Engine, p *sim.Proc) {
		cfg := DefaultSSD()
		cfg.WriteAmplification = 2.5
		d := NewSSD(e, cfg)
		if err := d.Access(p, Request{Offset: 0, Size: 1 << 20, Write: true}); err != nil {
			t.Fatal(err)
		}
		want := int64(2.5 * (1 << 20))
		// With GC off, the credit is every NAND byte programmed.
		if d.gcCredit != want {
			t.Fatalf("NAND written = %d, want %d", d.gcCredit, want)
		}
		// Logical bytes stay at the requested size.
		if got := obs.Get(e).Registry().Counter("device/ssd/bytes_written").Value(); got != 1<<20 {
			t.Fatalf("bytes_written = %d", got)
		}
		// Reads do not amplify.
		if err := d.Access(p, Request{Offset: 0, Size: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		if d.gcCredit != want {
			t.Fatalf("read changed NAND written to %d", d.gcCredit)
		}
	})
}

func TestSSDGCPausesStallDevice(t *testing.T) {
	run := func(gcEvery int64, gcPause sim.Time) sim.Time {
		e := sim.NewEngine(1)
		cfg := DefaultSSD()
		cfg.GCPauseEvery = gcEvery
		cfg.GCPause = gcPause
		d := NewSSD(e, cfg)
		e.Spawn("w", func(p *sim.Proc) {
			for i := 0; i < 32; i++ {
				if err := d.Access(p, Request{Offset: int64(i) * (1 << 20), Size: 1 << 20, Write: true}); err != nil {
					t.Error(err)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	noGC := run(0, 0)
	if paused := run(0, 50*sim.Millisecond); paused != noGC {
		t.Fatalf("GC disabled by a zero interval still paused: %v vs %v", paused, noGC)
	}
	// One lone writer: each pause adds exactly its length, so the extra
	// time counts the pauses, 4 for 32 MiB at one per 8 MiB.
	if withGC := run(8<<20, 50*sim.Millisecond); withGC != noGC+4*50*sim.Millisecond {
		t.Fatalf("GC run %v, want %v plus 4 pauses of 50ms", withGC, noGC)
	}
}

func TestSSDGCPauseBlocksConcurrentReaders(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultSSD()
	cfg.GCPauseEvery = 1 << 20
	cfg.GCPause = 100 * sim.Millisecond
	d := NewSSD(e, cfg)
	var readDone sim.Time
	e.Spawn("writer", func(p *sim.Proc) {
		if err := d.Access(p, Request{Offset: 0, Size: 1 << 20, Write: true}); err != nil {
			t.Error(err)
		}
	})
	e.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond) // arrive during the GC stall
		if err := d.Access(p, Request{Offset: 8 << 20, Size: 4096}); err != nil {
			t.Error(err)
		}
		readDone = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readDone < 100*sim.Millisecond {
		t.Fatalf("reader finished at %v, did not queue behind the GC stall", readDone)
	}
}
