package middleware

import (
	"testing"
	"testing/quick"

	"bps/internal/device"
	"bps/internal/fsim"
	"bps/internal/netsim"
	"bps/internal/obs"
	"bps/internal/pfs"
	"bps/internal/sim"
	"bps/internal/trace"
)

// localSetup builds a RAM-backed local file target of the given size.
func localSetup(e *sim.Engine, size int64) (Target, *fsim.FileSystem) {
	dev := device.NewRAMDisk(e, "ram", 4<<30, 10*sim.Microsecond, 200e6)
	fs := fsim.New(dev, fsim.Config{})
	f, err := fs.Create("f", size)
	if err != nil {
		panic(err)
	}
	return NewTarget(f.Layer(), f.Name(), f.Size()), fs
}

func TestPOSIXRecordsAccesses(t *testing.T) {
	e := sim.NewEngine(1)
	col := trace.NewCollector(7)
	e.Spawn("app", func(p *sim.Proc) {
		target, _ := localSetup(e, 1<<20)
		io := NewPOSIX(target, col)
		if err := io.Read(p, 0, 64<<10); err != nil {
			t.Error(err)
		}
		if err := io.Write(p, 0, 100); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	recs := col.Records()
	if len(recs) != 2 {
		t.Fatalf("recorded %d accesses, want 2", len(recs))
	}
	if recs[0].PID != 7 || recs[0].Blocks != 128 {
		t.Fatalf("read record = %+v", recs[0])
	}
	if recs[1].Blocks != 1 { // 100 bytes → 1 block
		t.Fatalf("write record = %+v", recs[1])
	}
	if recs[0].End <= recs[0].Start {
		t.Fatal("record has no duration")
	}
	if recs[1].Start < recs[0].End {
		t.Fatal("sequential accesses overlap in the trace")
	}
}

func TestPOSIXRecordsFailedAccess(t *testing.T) {
	e := sim.NewEngine(1)
	col := trace.NewCollector(1)
	e.Spawn("app", func(p *sim.Proc) {
		target, _ := localSetup(e, 1<<20)
		io := NewPOSIX(target, col)
		if err := io.Read(p, 0, 2<<20); err == nil { // beyond EOF
			t.Error("out-of-bounds read succeeded")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Paper §III.A: failed accesses are still counted in B.
	if len(col.Records()) != 1 || col.Records()[0].Blocks != trace.BlocksOf(2<<20) {
		t.Fatalf("failed access not recorded: %+v", col.Records())
	}
}

func TestRegionsBuilder(t *testing.T) {
	rs := Regions(1000, 3, 256, 8)
	want := []Region{{1000, 256}, {1264, 256}, {1528, 256}}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("Regions = %+v, want %+v", rs, want)
		}
	}
	if rs[0].End() != 1256 {
		t.Fatalf("End = %d", rs[0].End())
	}
}

func TestValidateRegions(t *testing.T) {
	if _, err := validateRegions(nil); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := validateRegions([]Region{{0, 0}}); err == nil {
		t.Error("zero-size region accepted")
	}
	if _, err := validateRegions([]Region{{-4, 8}}); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := validateRegions([]Region{{100, 50}, {120, 10}}); err == nil {
		t.Error("overlapping regions accepted")
	}
	if _, err := validateRegions([]Region{{100, 50}, {50, 10}}); err == nil {
		t.Error("unsorted regions accepted")
	}
	req, err := validateRegions([]Region{{0, 100}, {200, 50}})
	if err != nil || req != 150 {
		t.Errorf("required = %d, err = %v", req, err)
	}
}

func TestMPIIOSievingMovesHolesButRecordsRequired(t *testing.T) {
	run := func(sieving bool) (moved int64, recorded int64, ops int) {
		e := sim.NewEngine(1)
		col := trace.NewCollector(1)
		var fs *fsim.FileSystem
		e.Spawn("app", func(p *sim.Proc) {
			var target Target
			target, fs = localSetup(e, 8<<20)
			m := NewMPIIO(target, col, MPIIOConfig{DataSieving: sieving, SieveBufSize: 1 << 20})
			regions := Regions(0, 100, 256, 4096) // 100×256 B with 4 KiB holes
			if err := m.ReadRegions(p, regions); err != nil {
				t.Error(err)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return fs.Moved(), trace.Gather(col).TotalBlocks() * trace.BlockSize, len(col.Records())
	}

	movedSieve, recSieve, opsSieve := run(true)
	movedDirect, recDirect, opsDirect := run(false)

	required := int64(100 * 256)
	if recSieve != roundUpBlocks(required) || recDirect != roundUpBlocks(required) {
		t.Fatalf("recorded bytes: sieve=%d direct=%d, want required %d", recSieve, recDirect, required)
	}
	if opsSieve != 1 || opsDirect != 1 {
		t.Fatalf("ops: sieve=%d direct=%d, want 1 each (one MPI-IO call)", opsSieve, opsDirect)
	}
	if movedDirect != required {
		t.Fatalf("direct moved %d, want exactly required %d", movedDirect, required)
	}
	// Covering extent: 99 holes of 4096 plus 100 regions of 256.
	extent := int64(99*(256+4096) + 256)
	if movedSieve != extent {
		t.Fatalf("sieving moved %d, want covering extent %d", movedSieve, extent)
	}
}

func roundUpBlocks(b int64) int64 { return trace.BlocksOf(b) * trace.BlockSize }

func TestMPIIOSieveBufferChunking(t *testing.T) {
	e := sim.NewEngine(1)
	reg := obs.Attach(e, obs.Options{}).Registry()
	col := trace.NewCollector(1)
	e.Spawn("app", func(p *sim.Proc) {
		target, _ := localSetup(e, 8<<20)
		m := NewMPIIO(target, col, MPIIOConfig{DataSieving: true, SieveBufSize: 64 << 10})
		// Extent of 1 MiB → 16 sieve reads of 64 KiB.
		regions := []Region{{0, 512}, {1<<20 - 512, 512}}
		if err := m.ReadRegions(p, regions); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ops := reg.Histogram("device/ram/service_ns").Count(); ops != 16 {
		t.Fatalf("device ops = %d, want 16 sieve-buffer reads", ops)
	}
}

func TestMPIIOContiguousRead(t *testing.T) {
	e := sim.NewEngine(1)
	col := trace.NewCollector(1)
	e.Spawn("app", func(p *sim.Proc) {
		target, _ := localSetup(e, 1<<20)
		m := NewMPIIO(target, col, MPIIOConfig{DataSieving: true})
		if err := m.Read(p, 0, 64<<10); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(col.Records()) != 1 || col.Records()[0].Blocks != 128 {
		t.Fatalf("records = %+v", col.Records())
	}
}

func TestMPIIOOverPFS(t *testing.T) {
	e := sim.NewEngine(1)
	fabric := netsim.NewFabric(e, netsim.DefaultGigabit())
	devs := []device.Device{
		device.NewRAMDisk(e, "d0", 8<<30, 10*sim.Microsecond, 200e6),
		device.NewRAMDisk(e, "d1", 8<<30, 10*sim.Microsecond, 200e6),
	}
	cluster := pfs.NewCluster(e, fabric, pfs.Config{}, devs)
	col := trace.NewCollector(1)
	e.Spawn("app", func(p *sim.Proc) {
		f, err := cluster.Create("shared", 4<<20, cluster.DefaultLayout())
		if err != nil {
			t.Error(err)
			return
		}
		client := cluster.NewClient("c0")
		m := NewMPIIO(NewTarget(client.Layer(f), f.Name(), f.Size()), col, MPIIOConfig{DataSieving: true, SieveBufSize: 1 << 20})
		if err := m.ReadRegions(p, Regions(0, 64, 256, 8192)); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	required := int64(64 * 256)
	if got := trace.Gather(col).TotalBlocks() * trace.BlockSize; got != roundUpBlocks(required) {
		t.Fatalf("recorded %d, want %d", got, required)
	}
	extent := int64(63*(256+8192) + 256)
	if cluster.Moved() != extent {
		t.Fatalf("cluster moved %d, want covering extent %d", cluster.Moved(), extent)
	}
}

// prefetchOver builds a Prefetcher over a local file system and the
// counter of what it sends downstream.
func prefetchOver(e *sim.Engine) (Target, *Prefetcher, *countLayer, *fsim.FileSystem) {
	target, fs := localSetup(e, 16<<20)
	down := &countLayer{Layer: target.Layer()}
	pf := NewPrefetcher(target.With(down), 4<<20)
	return target, pf, down, fs
}

func TestPrefetcherSequentialHits(t *testing.T) {
	e := sim.NewEngine(1)
	var down *countLayer
	var fs *fsim.FileSystem
	reads := int64(0)
	e.Spawn("app", func(p *sim.Proc) {
		var target Target
		var pf *Prefetcher
		target, pf, down, fs = prefetchOver(e)
		col := trace.NewCollector(1)
		io := NewPOSIX(target.With(pf), col)
		for off := int64(0); off < 8<<20; off += 64 << 10 {
			if err := io.Read(p, off, 64<<10); err != nil {
				t.Error(err)
			}
			reads++
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if down.n >= reads {
		t.Fatalf("%d sequential reads sent %d requests downstream: no prefetch hits", reads, down.n)
	}
	// The prefetcher moved at least the demand (8 MiB) through the FS.
	if fs.Moved() < 8<<20 {
		t.Fatalf("moved %d < demand", fs.Moved())
	}
	// And more than the demand, because of readahead past the last read.
	if fs.Moved() <= 8<<20 {
		t.Fatalf("moved %d, expected readahead beyond demand", fs.Moved())
	}
}

func TestPrefetcherRandomBypasses(t *testing.T) {
	e := sim.NewEngine(1)
	var down *countLayer
	e.Spawn("app", func(p *sim.Proc) {
		var target Target
		var pf *Prefetcher
		target, pf, down, _ = prefetchOver(e)
		tgt := target.With(pf)
		offsets := []int64{8 << 20, 0, 12 << 20, 4 << 20}
		for _, off := range offsets {
			if err := tgt.ReadAt(p, off, 4096); err != nil {
				t.Error(err)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if down.n != 4 {
		t.Fatalf("4 random reads sent %d requests downstream: staging hits", down.n)
	}
	if down.bytes != 4*4096 {
		t.Fatalf("random reads fetched %d bytes, want exactly the 16 KiB demand", down.bytes)
	}
}

func TestPrefetcherWriteInvalidates(t *testing.T) {
	e := sim.NewEngine(1)
	e.Spawn("app", func(p *sim.Proc) {
		target, pf, down, _ := prefetchOver(e)
		tgt := target.With(pf)
		// Prime the staging buffer sequentially from offset 0.
		if err := tgt.ReadAt(p, 0, 64<<10); err != nil {
			t.Error(err)
		}
		if err := tgt.ReadAt(p, 64<<10, 64<<10); err != nil {
			t.Error(err)
		}
		if err := tgt.WriteAt(p, 0, 4096); err != nil {
			t.Error(err)
		}
		before := down.n
		if err := tgt.ReadAt(p, 128<<10, 4096); err != nil {
			t.Error(err)
		}
		if down.n != before+1 {
			t.Error("read after write served from stale staging buffer")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: recorded blocks always equal the ceil of required bytes over
// the block size, for any region geometry, sieving or not.
func TestRecordedBlocksProperty(t *testing.T) {
	prop := func(count, size, spacing uint16, sieve bool) bool {
		n := int(count%20) + 1
		sz := int64(size%2000) + 1
		sp := int64(spacing % 4000)
		e := sim.NewEngine(1)
		col := trace.NewCollector(1)
		ok := true
		e.Spawn("app", func(p *sim.Proc) {
			target, _ := localSetup(e, 64<<20)
			m := NewMPIIO(target, col, MPIIOConfig{DataSieving: sieve, SieveBufSize: 1 << 20})
			if err := m.ReadRegions(p, Regions(0, n, sz, sp)); err != nil {
				ok = false
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok && col.Records()[0].Blocks == trace.BlocksOf(int64(n)*sz)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMPIIOWrite(t *testing.T) {
	e := sim.NewEngine(1)
	reg := obs.Attach(e, obs.Options{}).Registry()
	col := trace.NewCollector(1)
	e.Spawn("app", func(p *sim.Proc) {
		target, _ := localSetup(e, 1<<20)
		m := NewMPIIO(target, col, MPIIOConfig{})
		if err := m.Write(p, 0, 256<<10); err != nil {
			t.Error(err)
		}
		if err := m.Write(p, -1, 10); err == nil {
			t.Error("negative-offset write accepted")
		}
		if err := m.Write(p, 0, 0); err == nil {
			t.Error("zero-size write accepted")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(col.Records()) != 1 || col.Records()[0].Blocks != trace.BlocksOf(256<<10) {
		t.Fatalf("records = %+v", col.Records())
	}
	if got := reg.Counter("device/ram/bytes_written").Value(); got != 256<<10 {
		t.Fatalf("wrote %d", got)
	}
}

// TestHealthyReadAllocs pins the zero-allocation request path: once
// warm, a read through POSIX or MPI-IO into a four-server pfs cluster
// (server page caches on, recovery off) allocates nothing per call —
// not its request, its pieces, its readahead fetch, the per-server
// jobs, their futures nor the wake of the waiting process. Each step hands the daemon app
// process one call and runs the engine until it is parked again.
func TestHealthyReadAllocs(t *testing.T) {
	const fileSize, record = 4 << 20, 256 << 10
	calls := map[string]func(p *sim.Proc, tgt Target, col *trace.Collector) func(off int64) error{
		"posix": func(p *sim.Proc, tgt Target, col *trace.Collector) func(int64) error {
			io := NewPOSIX(tgt, col)
			return func(off int64) error { return io.Read(p, off, record) }
		},
		// HopRead with prefetch: each call is a hop of two half records,
		// and a 64 KiB window makes the second read (and the first, unless
		// the hop wrapped) a sequential miss that extends the readahead.
		"posix-prefetch": func(p *sim.Proc, tgt Target, col *trace.Collector) func(int64) error {
			io := NewPOSIX(tgt.With(NewPrefetcher(tgt, 64<<10)), col)
			return func(off int64) error {
				if err := io.Read(p, off, record/2); err != nil {
					return err
				}
				return io.Read(p, off+record/2, record/2)
			}
		},
		"mpiio": func(p *sim.Proc, tgt Target, col *trace.Collector) func(int64) error {
			m := NewMPIIO(tgt, col, MPIIOConfig{})
			return func(off int64) error { return m.Read(p, off, record) }
		},
		"mpiio-regions": func(p *sim.Proc, tgt Target, col *trace.Collector) func(int64) error {
			m := NewMPIIO(tgt, col, MPIIOConfig{})
			var regions []Region
			return func(off int64) error {
				regions = append(regions[:0], Region{Off: off, Size: 4096}, Region{Off: off + 65536, Size: 4096})
				return m.ReadRegions(p, regions)
			}
		},
		"mpiio-sieve": func(p *sim.Proc, tgt Target, col *trace.Collector) func(int64) error {
			m := NewMPIIO(tgt, col, MPIIOConfig{DataSieving: true, SieveBufSize: 64 << 10})
			var regions []Region
			return func(off int64) error {
				regions = append(regions[:0], Region{Off: off, Size: 4096}, Region{Off: off + 196608, Size: 4096})
				return m.ReadRegions(p, regions)
			}
		},
	}
	for name, newCall := range calls {
		t.Run(name, func(t *testing.T) {
			e := sim.NewEngine(1)
			defer e.Shutdown()
			fabric := netsim.NewFabric(e, netsim.DefaultGigabit())
			devs := make([]device.Device, 4)
			for i := range devs {
				devs[i] = device.NewRAMDisk(e, "ram", 1<<30, 10*sim.Microsecond, 500e6)
			}
			cluster := pfs.NewCluster(e, fabric, pfs.Config{ServerFS: fsim.Config{CacheBytes: 16 << 20}}, devs)
			f, err := cluster.Create("data", fileSize, cluster.DefaultLayout())
			if err != nil {
				t.Fatal(err)
			}
			tgt := NewTarget(cluster.NewClient("c0").Layer(f), f.Name(), f.Size())
			col := trace.NewCollector(0)
			col.Grow(1 << 12)
			next := e.NewQueue()
			var off int64
			var ioErr error
			var item any = struct{}{}
			e.SpawnDaemon("app", func(p *sim.Proc) {
				call := newCall(p, tgt, col)
				for {
					next.Get(p)
					if err := call(off); err != nil && ioErr == nil {
						ioErr = err
					}
					off = (off + record) % (fileSize - record)
				}
			})
			step := func() {
				next.Put(item)
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2*fileSize/record; i++ {
				step() // fill the server caches and every scratch list
			}
			if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
				t.Errorf("warm %s read: %v allocs/call, want 0", name, allocs)
			}
			if ioErr != nil {
				t.Fatal(ioErr)
			}
			if len(col.Records()) == 0 {
				t.Fatal("no access was recorded")
			}
		})
	}
}
