package middleware

import (
	"testing"

	"bps/internal/fsim"
	"bps/internal/sim"
	"bps/internal/trace"
)

// interleavedRegions gives process pid blocks pid, pid+n, pid+2n, ... of
// a file of `total` regions of `size` bytes — the classic collective-I/O
// pattern.
func interleavedRegions(pid, nprocs, total int, size int64) []Region {
	var out []Region
	for i := pid; i < total; i += nprocs {
		out = append(out, Region{Off: int64(i) * size, Size: size})
	}
	return out
}

// runCollective runs nprocs processes reading an interleaved pattern
// collectively, returning moved bytes, makespan, and per-proc collectors.
func runCollective(t *testing.T, nprocs int, cfg CollectiveConfig) (int64, sim.Time, []*trace.Collector) {
	t.Helper()
	e := sim.NewEngine(1)
	var fs *fsim.FileSystem
	var target Target
	target, fs = localSetup(e, 16<<20)
	coll := NewCollective(e, target, nprocs, cfg)
	cols := make([]*trace.Collector, nprocs)
	const totalRegions = 256
	const regionSize = 16 << 10
	for pid := 0; pid < nprocs; pid++ {
		pid := pid
		cols[pid] = trace.NewCollector(int64(pid))
		e.Spawn("rank", func(p *sim.Proc) {
			regions := interleavedRegions(pid, nprocs, totalRegions, regionSize)
			if err := coll.ReadAll(p, cols[pid], regions); err != nil {
				t.Error(err)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return fs.Moved(), e.Now(), cols
}

func TestCollectiveReadsExtentOnce(t *testing.T) {
	moved, _, cols := runCollective(t, 4, CollectiveConfig{})
	extent := int64(256 * (16 << 10))
	if moved != extent {
		t.Fatalf("collective moved %d, want extent %d read exactly once", moved, extent)
	}
	// Each process records exactly its own required data.
	for pid, col := range cols {
		if len(col.Records()) != 1 {
			t.Fatalf("pid %d recorded %d accesses", pid, len(col.Records()))
		}
		wantBlocks := trace.BlocksOf(64 * (16 << 10)) // 256/4 regions each
		if col.Records()[0].Blocks != wantBlocks {
			t.Fatalf("pid %d blocks = %d, want %d", pid, col.Records()[0].Blocks, wantBlocks)
		}
	}
}

func TestCollectiveBeatsIndependentSieving(t *testing.T) {
	collMoved, collTime, _ := runCollective(t, 4, CollectiveConfig{})

	// Independent data sieving: each process's covering extent is nearly
	// the whole file, so the extent is re-read once per process.
	e := sim.NewEngine(1)
	var fs *fsim.FileSystem
	var target Target
	target, fs = localSetup(e, 16<<20)
	for pid := 0; pid < 4; pid++ {
		pid := pid
		col := trace.NewCollector(int64(pid))
		e.Spawn("rank", func(p *sim.Proc) {
			m := NewMPIIO(target, col, MPIIOConfig{DataSieving: true})
			if err := m.ReadRegions(p, interleavedRegions(pid, 4, 256, 16<<10)); err != nil {
				t.Error(err)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	sieveMoved, sieveTime := fs.Moved(), e.Now()

	if collMoved*3 > sieveMoved {
		t.Fatalf("collective moved %d vs sieving %d: expected ~4x reduction", collMoved, sieveMoved)
	}
	if collTime >= sieveTime {
		t.Fatalf("collective (%v) not faster than independent sieving (%v)", collTime, sieveTime)
	}
}

func TestCollectiveBarrier(t *testing.T) {
	// A straggler delays everyone: all records end at (or after) the
	// straggler's aggregation, and no one returns before it arrives.
	e := sim.NewEngine(1)
	target, _ := localSetup(e, 16<<20)
	coll := NewCollective(e, target, 2, CollectiveConfig{})
	cols := []*trace.Collector{trace.NewCollector(0), trace.NewCollector(1)}
	e.Spawn("early", func(p *sim.Proc) {
		if err := coll.ReadAll(p, cols[0], []Region{{Off: 0, Size: 4096}}); err != nil {
			t.Error(err)
		}
	})
	e.Spawn("late", func(p *sim.Proc) {
		p.Sleep(50 * sim.Millisecond)
		if err := coll.ReadAll(p, cols[1], []Region{{Off: 8192, Size: 4096}}); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	early := cols[0].Records()[0]
	if early.Start != 0 {
		t.Fatalf("early start = %v", early.Start)
	}
	if early.End < 50*sim.Millisecond {
		t.Fatalf("early rank returned at %v, before the straggler arrived", early.End)
	}
}

func TestCollectiveEmptyParticipant(t *testing.T) {
	e := sim.NewEngine(1)
	target, fs := localSetup(e, 1<<20)
	coll := NewCollective(e, target, 2, CollectiveConfig{})
	cols := []*trace.Collector{trace.NewCollector(0), trace.NewCollector(1)}
	e.Spawn("reader", func(p *sim.Proc) {
		if err := coll.ReadAll(p, cols[0], []Region{{Off: 0, Size: 64 << 10}}); err != nil {
			t.Error(err)
		}
	})
	e.Spawn("idle", func(p *sim.Proc) {
		if err := coll.ReadAll(p, cols[1], nil); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.Moved() != 64<<10 {
		t.Fatalf("moved %d", fs.Moved())
	}
	if cols[1].Records()[0].Blocks != 0 {
		t.Fatalf("idle rank recorded %d blocks", cols[1].Records()[0].Blocks)
	}
}

func TestCollectiveErrorPropagates(t *testing.T) {
	e := sim.NewEngine(1)
	target, _ := localSetup(e, 64<<10) // small file
	coll := NewCollective(e, target, 2, CollectiveConfig{})
	errors := make([]error, 2)
	for pid := 0; pid < 2; pid++ {
		pid := pid
		col := trace.NewCollector(int64(pid))
		e.Spawn("rank", func(p *sim.Proc) {
			// Extent reaches past EOF: aggregation must fail for everyone.
			errors[pid] = coll.ReadAll(p, col, []Region{{Off: int64(pid) * (96 << 10), Size: 32 << 10}})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for pid, err := range errors {
		if err == nil {
			t.Errorf("rank %d saw no error", pid)
		}
	}
}

func TestCollectiveMultipleRounds(t *testing.T) {
	e := sim.NewEngine(1)
	target, fs := localSetup(e, 16<<20)
	coll := NewCollective(e, target, 2, CollectiveConfig{})
	for pid := 0; pid < 2; pid++ {
		pid := pid
		col := trace.NewCollector(int64(pid))
		e.Spawn("rank", func(p *sim.Proc) {
			for round := 0; round < 3; round++ {
				base := int64(round) * (4 << 20)
				regions := []Region{{Off: base + int64(pid)*(64<<10), Size: 64 << 10}}
				if err := coll.ReadAll(p, col, regions); err != nil {
					t.Error(err)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.Moved() == 0 {
		t.Fatal("no data moved over three rounds")
	}
}

func TestCollectiveSingleProcess(t *testing.T) {
	e := sim.NewEngine(1)
	target, fs := localSetup(e, 1<<20)
	coll := NewCollective(e, target, 1, CollectiveConfig{})
	col := trace.NewCollector(0)
	e.Spawn("solo", func(p *sim.Proc) {
		if err := coll.ReadAll(p, col, []Region{{Off: 0, Size: 128 << 10}}); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.Moved() != 128<<10 || len(col.Records()) != 1 {
		t.Fatalf("moved=%d records=%d", fs.Moved(), len(col.Records()))
	}
}

func TestCollectiveInvalidConstruction(t *testing.T) {
	e := sim.NewEngine(1)
	target, _ := localSetup(e, 1<<20)
	defer func() {
		if recover() == nil {
			t.Error("zero-proc collective did not panic")
		}
	}()
	NewCollective(e, target, 0, CollectiveConfig{})
}

func TestCollectiveInvalidRegions(t *testing.T) {
	e := sim.NewEngine(1)
	target, _ := localSetup(e, 1<<20)
	coll := NewCollective(e, target, 1, CollectiveConfig{})
	col := trace.NewCollector(0)
	e.Spawn("solo", func(p *sim.Proc) {
		if err := coll.ReadAll(p, col, []Region{{Off: -1, Size: 10}}); err == nil {
			t.Error("invalid regions accepted")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
