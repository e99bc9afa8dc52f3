package bps

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Figure benchmarks
// execute the corresponding experiment sweep at 1/256 of the paper's data
// volume and report the headline normalized-CC values as custom metrics,
// so the benchmark output doubles as the reproduction record:
//
//	BenchmarkFig05SizesHDD  ...  0.96 CC(BPS)  -0.96 CC(IOPS)
//
// Ablation benchmarks at the bottom quantify the design choices called
// out in DESIGN.md §6.

import (
	"io"
	"math/rand"
	"testing"

	"bps/internal/core"
	"bps/internal/device"
	"bps/internal/experiments"
	"bps/internal/fsim"
	"bps/internal/middleware"
	"bps/internal/report"
	"bps/internal/sim"
	"bps/internal/trace"
	"bps/internal/workload"
)

// benchParams is the scale every figure benchmark runs at.
func benchParams() experiments.Params {
	return experiments.Params{Scale: 1.0 / 256, Seed: 42}
}

// benchFigure runs one figure sweep per iteration and reports its CC
// values (when present) as custom benchmark metrics.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchParams())
		f, err := s.Figure(id)
		if err != nil {
			b.Fatal(err)
		}
		fig = f
	}
	if fig.CC != nil {
		for _, k := range core.Kinds {
			b.ReportMetric(fig.CC.CC[k], "CC("+k.String()+")")
		}
	} else if len(fig.Points) > 0 {
		first := fig.Points[0].Metrics
		last := fig.Points[len(fig.Points)-1].Metrics
		b.ReportMetric(first.Value(fig.DetailKind), fig.DetailKind.String()+"-first")
		b.ReportMetric(last.Value(fig.DetailKind), fig.DetailKind.String()+"-last")
	}
}

// --- Tables ---

// BenchmarkTable1Directions renders the paper's Table 1 (expected CC
// directions per metric).
func BenchmarkTable1Directions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.WriteTable1(io.Discard)
	}
}

// BenchmarkTable2Sets renders the paper's Table 2 (experiment sets).
func BenchmarkTable2Sets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.WriteTable2(io.Discard)
	}
}

// --- Figures 4–12 ---

// BenchmarkFig04Devices regenerates Fig. 4: CC across storage devices.
func BenchmarkFig04Devices(b *testing.B) { benchFigure(b, "fig4") }

// BenchmarkFig05SizesHDD regenerates Fig. 5: CC across I/O sizes, HDD.
func BenchmarkFig05SizesHDD(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig06SizesSSD regenerates Fig. 6: CC across I/O sizes, SSD.
func BenchmarkFig06SizesSSD(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig07IOPSDetail regenerates Fig. 7: IOPS vs execution time.
func BenchmarkFig07IOPSDetail(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig08ARPTDetail regenerates Fig. 8: ARPT vs execution time.
func BenchmarkFig08ARPTDetail(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig09Concurrency regenerates Fig. 9: CC under pure
// concurrency.
func BenchmarkFig09Concurrency(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFig10ARPTConcurrency regenerates Fig. 10: ARPT vs execution
// time under concurrency.
func BenchmarkFig10ARPTConcurrency(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkFig11IOR regenerates Fig. 11: CC for IOR on a shared file.
func BenchmarkFig11IOR(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkFig12Sieving regenerates Fig. 12: CC under data sieving.
func BenchmarkFig12Sieving(b *testing.B) { benchFigure(b, "fig12") }

// --- The Fig. 3 algorithm (§III.C overhead analysis) ---

func randomRecords(n int) []Record {
	rng := rand.New(rand.NewSource(7))
	recs := make([]Record, n)
	for i := range recs {
		start := Time(rng.Int63n(int64(10 * Second)))
		recs[i] = Record{
			PID:    int64(i % 16),
			Blocks: 128,
			Start:  start,
			End:    start + Time(rng.Int63n(int64(5*Millisecond))),
		}
	}
	return recs
}

// BenchmarkOverlapTime measures the O(n log n) overlapped-time
// computation on unsorted records, the cost §III.C bounds.
func BenchmarkOverlapTime(b *testing.B) {
	for _, n := range []int{1000, 65535, 1 << 20} {
		recs := randomRecords(n)
		b.Run(sizeName(n), func(b *testing.B) {
			work := make([]Record, len(recs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, recs) // OverlapIntervals sorts in place
				if OverlapTime(work) == 0 {
					b.Fatal("zero union")
				}
			}
		})
	}
}

// BenchmarkTraceFootprint encodes the paper's 65535-operation example in
// the 32-byte record format (§III.C: ≈ 2 MiB, "about 3 megabytes").
func BenchmarkTraceFootprint(b *testing.B) {
	recs := randomRecords(65535)
	b.SetBytes(int64(len(recs)) * RecordSize)
	for i := 0; i < b.N; i++ {
		if err := WriteTrace(io.Discard, recs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationOverlapVsSum compares the union time with the naive
// duration sum on a heavily concurrent trace: the two diverge by the
// concurrency factor, which is exactly why ARPT misleads.
func BenchmarkAblationOverlapVsSum(b *testing.B) {
	recs := randomRecords(65535)
	var union, sum Time
	for i := 0; i < b.N; i++ {
		work := make([]Record, len(recs))
		copy(work, recs)
		union = OverlapTime(work)
		sum = SumTime(recs)
	}
	b.ReportMetric(float64(sum)/float64(union), "sum/union")
}

// BenchmarkAblationSieveBuffer sweeps the data-sieving buffer size on a
// fixed noncontiguous pattern and reports each run's execution time:
// larger buffers amortize per-access costs until the extent is covered.
func BenchmarkAblationSieveBuffer(b *testing.B) {
	for _, buf := range []int64{256 << 10, 1 << 20, 4 << 20} {
		buf := buf
		b.Run(sizeName(int(buf)), func(b *testing.B) {
			var exec Time
			for i := 0; i < b.N; i++ {
				e := sim.NewEngine(1)
				dev := device.NewHDD(e, device.DefaultHDD())
				fs := fsim.New(dev, fsim.Config{})
				f, err := fs.Create("f", 1<<30)
				if err != nil {
					b.Fatal(err)
				}
				env := &workload.LocalEnv{FS: fs, Files: []*fsim.File{f}}
				w := workload.Noncontig{
					Label: "ablate", Processes: 1,
					RegionCount: 8192, RegionSize: 256, RegionSpacing: 2048,
					RegionsPerCall: 1024, Sieving: true, SieveBufSize: buf,
				}
				res, err := w.Run(e, env)
				if err != nil {
					b.Fatal(err)
				}
				exec = res.ExecTime
			}
			b.ReportMetric(exec.Seconds(), "exec-s")
		})
	}
}

// BenchmarkAblationSievingOnOff compares sieving against direct region
// reads at the paper's geometry: the crossover that motivated data
// sieving in the first place.
func BenchmarkAblationSievingOnOff(b *testing.B) {
	for _, sieving := range []bool{true, false} {
		name := "direct"
		if sieving {
			name = "sieving"
		}
		sieving := sieving
		b.Run(name, func(b *testing.B) {
			var exec Time
			for i := 0; i < b.N; i++ {
				e := sim.NewEngine(1)
				dev := device.NewHDD(e, device.DefaultHDD())
				fs := fsim.New(dev, fsim.Config{})
				f, err := fs.Create("f", 1<<30)
				if err != nil {
					b.Fatal(err)
				}
				env := &workload.LocalEnv{FS: fs, Files: []*fsim.File{f}}
				w := workload.Noncontig{
					Label: "ablate", Processes: 1,
					RegionCount: 4096, RegionSize: 256, RegionSpacing: 1024,
					RegionsPerCall: 1024, Sieving: sieving,
				}
				res, err := w.Run(e, env)
				if err != nil {
					b.Fatal(err)
				}
				exec = res.ExecTime
			}
			b.ReportMetric(exec.Seconds(), "exec-s")
		})
	}
}

// BenchmarkAblationSSDChannels sweeps the SSD channel count for one
// large sequential read: device-internal parallelism is what lets large
// requests approach full bandwidth.
func BenchmarkAblationSSDChannels(b *testing.B) {
	for _, ch := range []int{1, 4, 8} {
		ch := ch
		b.Run(sizeName(ch), func(b *testing.B) {
			var took Time
			for i := 0; i < b.N; i++ {
				e := sim.NewEngine(1)
				cfg := device.DefaultSSD()
				cfg.Channels = ch
				d := device.NewSSD(e, cfg)
				e.Spawn("r", func(p *sim.Proc) {
					for off := int64(0); off < 64<<20; off += 8 << 20 {
						if err := d.Access(p, device.Request{Offset: off, Size: 8 << 20}); err != nil {
							b.Error(err)
						}
					}
				})
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
				took = e.Now()
			}
			b.ReportMetric(took.Seconds(), "exec-s")
		})
	}
}

// BenchmarkAblationServerReadahead compares interleaved shared-file
// streams on an HDD server with and without kernel readahead: without
// it, per-request seeks collapse aggregate throughput.
func BenchmarkAblationServerReadahead(b *testing.B) {
	run := func(b *testing.B, ra int64) Time {
		e := sim.NewEngine(1)
		dev := device.NewHDD(e, device.DefaultHDD())
		cfg := fsim.Config{}
		if ra > 0 {
			cfg.CacheBytes = 1 << 30
			cfg.ReadAhead = ra
		}
		fs := fsim.New(dev, cfg)
		f, err := fs.Create("f", 64<<20)
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < 4; s++ {
			base := int64(s) * (16 << 20)
			e.Spawn("stream", func(p *sim.Proc) {
				for off := int64(0); off < 16<<20; off += 64 << 10 {
					if err := f.ReadAt(p, base+off, 64<<10); err != nil {
						b.Error(err)
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		return e.Now()
	}
	for _, ra := range []int64{0, 1 << 20} {
		name := "readahead"
		if ra == 0 {
			name = "none"
		}
		ra := ra
		b.Run(name, func(b *testing.B) {
			var took Time
			for i := 0; i < b.N; i++ {
				took = run(b, ra)
			}
			b.ReportMetric(took.Seconds(), "exec-s")
		})
	}
}

// BenchmarkSimEngine measures raw event throughput of the DES kernel.
func BenchmarkSimEngine(b *testing.B) {
	e := sim.NewEngine(1)
	e.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(sim.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return itoa(n>>20) + "Mi"
	case n >= 1<<10 && n%(1<<10) == 0:
		return itoa(n>>10) + "Ki"
	default:
		return itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationCollectiveVsSieving compares the two ROMIO
// optimizations on an interleaved pattern (see examples/collectiveio).
func BenchmarkAblationCollectiveVsSieving(b *testing.B) {
	run := func(collective bool) Time {
		e := sim.NewEngine(1)
		dev := device.NewHDD(e, device.DefaultHDD())
		fs := fsim.New(dev, fsim.Config{})
		const regions, regionSize, procs = 512, 16 << 10, 4
		f, err := fs.Create("f", regions*regionSize)
		if err != nil {
			b.Fatal(err)
		}
		target := middleware.NewTarget(f.Layer(), f.Name(), f.Size())
		var coll *middleware.Collective
		if collective {
			coll = middleware.NewCollective(e, target, procs, middleware.CollectiveConfig{})
		}
		for pid := 0; pid < procs; pid++ {
			pid := pid
			col := trace.NewCollector(int64(pid))
			e.Spawn("rank", func(p *sim.Proc) {
				var rs []middleware.Region
				for i := pid; i < regions; i += procs {
					rs = append(rs, middleware.Region{Off: int64(i) * regionSize, Size: regionSize})
				}
				if collective {
					if err := coll.ReadAll(p, col, rs); err != nil {
						b.Error(err)
					}
					return
				}
				m := middleware.NewMPIIO(target, col, middleware.MPIIOConfig{DataSieving: true})
				if err := m.ReadRegions(p, rs); err != nil {
					b.Error(err)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		return e.Now()
	}
	for _, mode := range []bool{false, true} {
		name := "sieving"
		if mode {
			name = "collective"
		}
		mode := mode
		b.Run(name, func(b *testing.B) {
			var took Time
			for i := 0; i < b.N; i++ {
				took = run(mode)
			}
			b.ReportMetric(took.Seconds(), "exec-s")
		})
	}
}

// BenchmarkExt1Prefetch regenerates the ext1 extension experiment.
func BenchmarkExt1Prefetch(b *testing.B) { benchFigure(b, "ext1") }

// BenchmarkExt2WriteSweep regenerates the ext2 extension experiment.
func BenchmarkExt2WriteSweep(b *testing.B) { benchFigure(b, "ext2") }

// BenchmarkExt3AccessMethods regenerates the ext3 extension experiment.
func BenchmarkExt3AccessMethods(b *testing.B) { benchFigure(b, "ext3") }
