// Macro-benchmarks: whole paper figures reproduced end to end, and one
// application access through the full parallel stack. These live in
// package sim_test because they drive the engine through the
// experiments, middleware and pfs layers, which package sim cannot
// import.
package sim_test

import (
	"testing"

	"bps/internal/device"
	"bps/internal/experiments"
	"bps/internal/fsim"
	"bps/internal/middleware"
	"bps/internal/netsim"
	"bps/internal/pfs"
	"bps/internal/sim"
	"bps/internal/trace"
)

// benchFigure reproduces one figure per iteration at 1/1024 of the
// paper's data volume with a fresh (memoization-free) suite each time.
// Parallel: 1 keeps the measurement a pure engine/workload number,
// independent of GOMAXPROCS.
func benchFigure(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Params{Scale: 1.0 / 1024, Seed: 42, Parallel: 1})
		if _, err := s.Figure(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 is the record-size sweep over HDD and SSD (20 runs) —
// the suite's broadest single figure and the macro guard on engine
// regressions that micro-benchmarks miss.
func BenchmarkFigure5(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFigure9 is the process-count sweep on the parallel stack, the
// most contention-heavy figure (up to 32 procs fighting per server).
func BenchmarkFigure9(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkHealthyAccess is one warm 256 KiB POSIX read through a
// four-server pfs cluster (server page caches on, recovery off): the
// request, the striping into per-server jobs, the RPC legs, the server
// workers and the futures the reader waits on. The healthy request
// path must stay allocation-free, so the benchmark is guarded at 0
// allocs/op. Each iteration hands the daemon reader one access and runs
// the engine until the reader is parked again.
func BenchmarkHealthyAccess(b *testing.B) {
	const fileSize, record = 4 << 20, 256 << 10
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
		b.Fatal(err)
	}
	col := trace.NewCollector(0)
	io := middleware.NewPOSIX(middleware.NewTarget(cluster.NewClient("c0").Layer(f), f.Name(), f.Size()), col)
	warm := 2 * fileSize / record
	col.Grow(warm + b.N)
	next := e.NewQueue()
	var off int64
	var ioErr error
	e.SpawnDaemon("reader", func(p *sim.Proc) {
		for {
			next.Get(p)
			if err := io.Read(p, off, record); err != nil && ioErr == nil {
				ioErr = err
			}
			off = (off + record) % (fileSize - record)
		}
	})
	var item any = struct{}{}
	step := func() {
		next.Put(item)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if ioErr != nil {
		b.Fatal(ioErr)
	}
}
