package fsim

import (
	"testing"
	"testing/quick"

	"bps/internal/device"
	"bps/internal/obs"
	"bps/internal/sim"
)

func newRAMFS(e *sim.Engine, cfg Config) *FileSystem {
	dev := device.NewRAMDisk(e, "ram", 1<<30, sim.Microsecond, 1e9)
	return New(dev, cfg)
}

func run(t *testing.T, body func(e *sim.Engine, p *sim.Proc)) sim.Time {
	t.Helper()
	return runOn(t, sim.NewEngine(1), body)
}

// observedEngine returns an engine with an observer attached: devices
// built on it count their accesses into reg under device/<name>/, one
// service_ns sample per access.
func observedEngine() (*sim.Engine, *obs.Registry) {
	e := sim.NewEngine(1)
	return e, obs.Attach(e, obs.Options{}).Registry()
}

func runOn(t *testing.T, e *sim.Engine, body func(e *sim.Engine, p *sim.Proc)) sim.Time {
	t.Helper()
	e.Spawn("test", func(p *sim.Proc) { body(e, p) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Now()
}

func TestCreateOpenErrors(t *testing.T) {
	run(t, func(e *sim.Engine, p *sim.Proc) {
		fs := newRAMFS(e, Config{})
		if _, err := fs.Create("a", 0); err == nil {
			t.Error("zero-size create succeeded")
		}
		if f, err := fs.Create("a", 4096); err != nil || f.Name() != "a" || f.Size() != 4096 {
			t.Errorf("create: %v %v", f, err)
		}
		if _, err := fs.Create("a", 4096); err == nil {
			t.Error("duplicate create succeeded")
		}
		if _, err := fs.Create("huge", 2<<30); err == nil {
			t.Error("create beyond device capacity succeeded")
		}
	})
}

func TestReadWriteBounds(t *testing.T) {
	run(t, func(e *sim.Engine, p *sim.Proc) {
		fs := newRAMFS(e, Config{})
		f, err := fs.Create("f", 10000)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.ReadAt(p, 0, 10000); err != nil {
			t.Error(err)
		}
		if err := f.ReadAt(p, 9999, 2); err == nil {
			t.Error("read past EOF succeeded")
		}
		if err := f.ReadAt(p, -1, 10); err == nil {
			t.Error("negative offset read succeeded")
		}
		if err := f.WriteAt(p, 0, 0); err == nil {
			t.Error("zero-size write succeeded")
		}
		if err := f.WriteAt(p, 5000, 5000); err != nil {
			t.Error(err)
		}
	})
}

func TestMovedCountsDeviceBytes(t *testing.T) {
	e, reg := observedEngine()
	runOn(t, e, func(e *sim.Engine, p *sim.Proc) {
		fs := newRAMFS(e, Config{})
		f, _ := fs.Create("f", 1<<20)
		if err := f.ReadAt(p, 0, 1<<20); err != nil {
			t.Fatal(err)
		}
		if fs.Moved() != 1<<20 {
			t.Fatalf("Moved = %d, want %d", fs.Moved(), 1<<20)
		}
		if got := reg.Counter("device/ram/bytes_read").Value(); got != 1<<20 {
			t.Fatalf("device bytes_read = %d", got)
		}
	})
}

func TestCacheHitsFasterAndNotMoved(t *testing.T) {
	var coldMoved, warmMoved int64
	var coldT, warmT sim.Time
	run(t, func(e *sim.Engine, p *sim.Proc) {
		// Slow device so the cache effect is unmistakable.
		dev := device.NewRAMDisk(e, "slow", 1<<30, sim.Millisecond, 50e6)
		fs := New(dev, Config{CacheBytes: 64 << 20})
		f, _ := fs.Create("f", 8<<20)
		t0 := p.Now()
		if err := f.ReadAt(p, 0, 8<<20); err != nil {
			t.Fatal(err)
		}
		coldT, coldMoved = p.Now()-t0, fs.Moved()
		t1 := p.Now()
		if err := f.ReadAt(p, 0, 8<<20); err != nil {
			t.Fatal(err)
		}
		warmT, warmMoved = p.Now()-t1, fs.Moved()-coldMoved
	})
	if warmMoved != 0 {
		t.Fatalf("warm read moved %d bytes from device, want 0", warmMoved)
	}
	if coldMoved != 8<<20 {
		t.Fatalf("cold read moved %d, want %d", coldMoved, 8<<20)
	}
	if warmT*10 > coldT {
		t.Fatalf("warm read %v not ≫ faster than cold %v", warmT, coldT)
	}
}

func TestFlushCacheForcesDeviceTraffic(t *testing.T) {
	run(t, func(e *sim.Engine, p *sim.Proc) {
		fs := newRAMFS(e, Config{CacheBytes: 64 << 20})
		f, _ := fs.Create("f", 1<<20)
		if err := f.ReadAt(p, 0, 1<<20); err != nil {
			t.Fatal(err)
		}
		fs.FlushCache()
		before := fs.Moved()
		if err := f.ReadAt(p, 0, 1<<20); err != nil {
			t.Fatal(err)
		}
		if fs.Moved()-before != 1<<20 {
			t.Fatalf("post-flush read moved %d, want full %d", fs.Moved()-before, 1<<20)
		}
	})
}

func TestCacheEviction(t *testing.T) {
	run(t, func(e *sim.Engine, p *sim.Proc) {
		// Cache holds 1 MiB; read 4 MiB then re-read the start: must miss.
		fs := newRAMFS(e, Config{CacheBytes: 1 << 20})
		f, _ := fs.Create("f", 4<<20)
		if err := f.ReadAt(p, 0, 4<<20); err != nil {
			t.Fatal(err)
		}
		before := fs.Moved()
		if err := f.ReadAt(p, 0, 4096); err != nil {
			t.Fatal(err)
		}
		if fs.Moved() == before {
			t.Fatal("evicted page served from cache")
		}
	})
}

func TestWriteThroughPopulatesCache(t *testing.T) {
	run(t, func(e *sim.Engine, p *sim.Proc) {
		fs := newRAMFS(e, Config{CacheBytes: 64 << 20})
		f, _ := fs.Create("f", 1<<20)
		if err := f.WriteAt(p, 0, 1<<20); err != nil {
			t.Fatal(err)
		}
		if fs.Moved() != 1<<20 {
			t.Fatalf("write-through moved %d", fs.Moved())
		}
		before := fs.Moved()
		if err := f.ReadAt(p, 0, 1<<20); err != nil {
			t.Fatal(err)
		}
		if fs.Moved() != before {
			t.Fatal("read after write went to device; write should populate cache")
		}
	})
}

func TestPartialCacheRunCoalescing(t *testing.T) {
	e, reg := observedEngine()
	devOps := reg.Histogram("device/ram/service_ns").Count
	runOn(t, e, func(e *sim.Engine, p *sim.Proc) {
		fs := newRAMFS(e, Config{CacheBytes: 64 << 20})
		f, _ := fs.Create("f", 64<<10)
		// Warm pages 4..7 (offsets 16K..32K).
		if err := f.ReadAt(p, 16<<10, 16<<10); err != nil {
			t.Fatal(err)
		}
		before := devOps()
		// Read the whole file: misses split into two coalesced runs around
		// the warm middle.
		if err := f.ReadAt(p, 0, 64<<10); err != nil {
			t.Fatal(err)
		}
		newOps := devOps() - before
		if newOps != 2 {
			t.Fatalf("full read issued %d device ops, want 2 coalesced runs", newOps)
		}
	})
}

// Property: for any in-bounds read pattern, Moved never exceeds bytes
// requested (no cache) and equals them exactly.
func TestMovedEqualsRequestedWithoutCache(t *testing.T) {
	prop := func(offs []uint16) bool {
		e := sim.NewEngine(1)
		fs := newRAMFS(e, Config{})
		var want int64
		ok := true
		e.Spawn("p", func(p *sim.Proc) {
			f, err := fs.Create("f", 1<<20)
			if err != nil {
				ok = false
				return
			}
			for _, o := range offs {
				off := int64(o) % (1 << 19)
				size := int64(o%1000) + 1
				if err := f.ReadAt(p, off, size); err != nil {
					ok = false
					return
				}
				want += size
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok && fs.Moved() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadAheadAmortizesDeviceOps(t *testing.T) {
	run := func(ra int64) (devOps uint64, moved int64) {
		e, reg := observedEngine()
		dev := device.NewRAMDisk(e, "ram", 1<<30, 100*sim.Microsecond, 100e6)
		fs := New(dev, Config{CacheBytes: 64 << 20, ReadAhead: ra})
		e.Spawn("p", func(p *sim.Proc) {
			f, err := fs.Create("f", 8<<20)
			if err != nil {
				t.Error(err)
				return
			}
			for off := int64(0); off < 8<<20; off += 64 << 10 {
				if err := f.ReadAt(p, off, 64<<10); err != nil {
					t.Error(err)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return reg.Histogram("device/ram/service_ns").Count(), fs.Moved()
	}
	noRAOps, noRAMoved := run(0)
	raOps, raMoved := run(1 << 20)
	if noRAOps != 128 {
		t.Fatalf("no-RA device ops = %d, want 128", noRAOps)
	}
	// With 1 MiB readahead, roughly one device op per MiB: ~8 ops.
	if raOps > 10 {
		t.Fatalf("RA device ops = %d, want ~8", raOps)
	}
	if noRAMoved != 8<<20 || raMoved != 8<<20 {
		t.Fatalf("moved: noRA=%d RA=%d, want exactly file size", noRAMoved, raMoved)
	}
}

func TestReadAheadInterleavedStreams(t *testing.T) {
	// Two interleaved sequential streams on one file must both be
	// detected, so device ops stay ~one per readahead window per stream.
	e, reg := observedEngine()
	dev := device.NewRAMDisk(e, "ram", 1<<30, 100*sim.Microsecond, 100e6)
	fs := New(dev, Config{CacheBytes: 64 << 20, ReadAhead: 1 << 20})
	f, err := fs.Create("f", 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		base := int64(s) * (8 << 20)
		e.Spawn("stream", func(p *sim.Proc) {
			for off := int64(0); off < 8<<20; off += 64 << 10 {
				if err := f.ReadAt(p, base+off, 64<<10); err != nil {
					t.Error(err)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ops := reg.Histogram("device/ram/service_ns").Count(); ops > 20 {
		t.Fatalf("interleaved streams issued %d device ops, want ~16", ops)
	}
}

func TestReadAheadRandomReadsNotExtended(t *testing.T) {
	e := sim.NewEngine(1)
	dev := device.NewRAMDisk(e, "ram", 1<<30, 10*sim.Microsecond, 100e6)
	fs := New(dev, Config{CacheBytes: 64 << 20, ReadAhead: 1 << 20})
	e.Spawn("p", func(p *sim.Proc) {
		f, err := fs.Create("f", 32<<20)
		if err != nil {
			t.Error(err)
			return
		}
		// Random-ish offsets (descending, never adjacent).
		for _, off := range []int64{24 << 20, 16 << 20, 9 << 20, 2 << 20} {
			if err := f.ReadAt(p, off, 4096); err != nil {
				t.Error(err)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.Moved() != 4*4096 {
		t.Fatalf("random reads moved %d, want %d (no readahead)", fs.Moved(), 4*4096)
	}
}

func TestReadAheadStopsAtEOF(t *testing.T) {
	e := sim.NewEngine(1)
	dev := device.NewRAMDisk(e, "ram", 1<<30, 10*sim.Microsecond, 100e6)
	fs := New(dev, Config{CacheBytes: 64 << 20, ReadAhead: 64 << 20})
	e.Spawn("p", func(p *sim.Proc) {
		f, err := fs.Create("f", 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.ReadAt(p, 0, 4096); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.Moved() != 1<<20 {
		t.Fatalf("readahead past EOF: moved %d, want %d", fs.Moved(), 1<<20)
	}
}
