// Collective I/O: two-phase collective reads vs. independent data
// sieving on an interleaved access pattern.
//
// Four processes each need every 4th 16 KiB block of a shared file. With
// independent data sieving each process reads nearly the whole covering
// extent, so the file system moves ~4× the file; with two-phase
// collective I/O aggregators read the extent once and the exchange phase
// scatters it. File-system bandwidth (BW) barely distinguishes the two —
// it happily counts the redundant traffic — while BPS reflects the
// application-visible speedup.
//
// This example uses the internal simulation packages directly; it is the
// one example that goes below the public facade, showing how the
// substrate composes.
//
// Run with: go run ./examples/collectiveio
package main

import (
	"fmt"
	"log"

	"bps"
	"bps/internal/core"
	"bps/internal/device"
	"bps/internal/fsim"
	"bps/internal/middleware"
	"bps/internal/sim"
	"bps/internal/trace"
)

const (
	nprocs       = 4
	totalRegions = 2048
	regionSize   = 16 << 10
	fileSize     = totalRegions * regionSize
)

func main() {
	collective := run("collective", true)
	sieving := run("sieving", false)

	fmt.Printf("%-12s %10s %12s %12s %14s\n", "method", "exec (s)", "moved (MB)", "BW (MB/s)", "BPS (blk/s)")
	for _, row := range []struct {
		label string
		m     core.Metrics
	}{{"sieving", sieving}, {"collective", collective}} {
		m := row.m
		fmt.Printf("%-12s %10.3f %12.1f %12.2f %14.0f\n",
			row.label, m.ExecTime.Seconds(), float64(m.MovedBytes)/1e6, m.Bandwidth()/1e6, m.BPS())
	}
	fmt.Printf("\ncollective speedup: %.1fx with %.1fx less data moved\n",
		sieving.ExecTime.Seconds()/collective.ExecTime.Seconds(),
		float64(sieving.MovedBytes)/float64(collective.MovedBytes))
	fmt.Println("BW cannot tell redundant traffic from useful traffic; BPS can.")
}

// run executes the interleaved pattern with one of the two methods and
// returns the gathered metrics.
func run(name string, useCollective bool) core.Metrics {
	e := sim.NewEngine(1)
	dev := device.NewHDD(e, device.DefaultHDD())
	fs := fsim.New(dev, fsim.Config{})
	f, err := fs.Create("shared", fileSize)
	if err != nil {
		log.Fatal(err)
	}
	target := middleware.NewTarget(f.Layer(), f.Name(), f.Size())

	collectors := make([]*trace.Collector, nprocs)
	var coll *middleware.Collective
	if useCollective {
		coll = middleware.NewCollective(e, target, nprocs, middleware.CollectiveConfig{})
	}
	for pid := 0; pid < nprocs; pid++ {
		pid := pid
		collectors[pid] = trace.NewCollector(int64(pid))
		e.Spawn("rank", func(p *sim.Proc) {
			var regions []middleware.Region
			for i := pid; i < totalRegions; i += nprocs {
				regions = append(regions, middleware.Region{Off: int64(i) * regionSize, Size: regionSize})
			}
			if useCollective {
				if err := coll.ReadAll(p, collectors[pid], regions); err != nil {
					log.Fatal(err)
				}
				return
			}
			m := middleware.NewMPIIO(target, collectors[pid], middleware.MPIIOConfig{DataSieving: true})
			if err := m.ReadRegions(p, regions); err != nil {
				log.Fatal(err)
			}
		})
	}
	if err := e.Run(); err != nil {
		log.Fatal(err)
	}
	_ = bps.BlockSize // examples pair internal composition with the public metric unit
	return core.Compute(trace.Gather(collectors...), fs.Moved(), e.Now())
}
