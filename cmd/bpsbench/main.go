// Command bpsbench regenerates the BPS paper's evaluation: every table
// and figure of §IV, at a configurable fraction of the paper's data
// volume — and, with -backend os|mem, measures a real or in-memory
// filesystem through the same metric stack instead of simulating one.
//
// Usage:
//
//	bpsbench [-fig all|table1|table2|fig4|...|fig12|faults|clientcache|qos|livemem|suite] [-scale 0.015625] [-seed 42] [-parallel N]
//	bpsbench -faults [-fault-rates 0,0.004,0.016]
//	bpsbench -fig clientcache
//	bpsbench -fig livemem
//	bpsbench -fig suite [-seeds 5] [-roofline-out suite.json]
//	bpsbench -backend mem [-live-procs 4] [-live-mb 64] [-live-record 1048576]
//	bpsbench -backend os -dir /data/bench -wall [-direct] [-windows 0.01] [-windows-out w.csv]
//
// The output for a CC figure is the per-run measurement table followed by
// the normalized correlation coefficient of each metric against
// application execution time — the figure's bar values. Detail figures
// print the metric/execution-time series the paper plots.
//
// Live backends: -backend mem measures the in-memory filesystem (a
// deterministic virtual-clock run unless -wall), -backend os measures
// the real directory tree under -dir (use iogen -layout to pre-build
// one). Each recorded process becomes a concurrent worker goroutine;
// the run reports the same BPS/IOPS/BW/ARPT surfaces a simulation does.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bps/internal/backend"
	"bps/internal/clock"
	"bps/internal/experiments"
	"bps/internal/live"
	"bps/internal/obs"
	"bps/internal/obs/forecast"
	"bps/internal/obs/serve"
	"bps/internal/report"
	"bps/internal/roofline"
	"bps/internal/sim"
	"bps/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "what to reproduce: all, table1, table2, fig4..fig12, ext1..ext3, faults, clientcache, qos, livemem, or suite")
	scale := flag.Float64("scale", 1.0/64, "fraction of the paper's data sizes (1.0 = full scale)")
	seed := flag.Int64("seed", 42, "base RNG seed")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for sweep runs (results are identical for any value)")
	quiet := flag.Bool("q", false, "suppress timing chatter")
	asCSV := flag.Bool("csv", false, "emit per-run rows (and cc rows) as CSV instead of tables")
	seeds := flag.Int("seeds", 0, "robustness mode: rerun the figure under N seeds and report CC ranges; for -fig suite, the number of seeds per phase (default 5)")
	rooflineOut := flag.String("roofline-out", "", "with -fig suite: write the suite report (per-phase CC distributions, ceilings, headroom) as JSON here")
	traceOut := flag.String("trace-out", "", "write the last reproduced run as Chrome trace-event JSON here")
	metricsOut := flag.String("metrics-out", "", "write the last reproduced run's per-layer metrics as CSV here")
	faultsFig := flag.Bool("faults", false, "shortcut for -fig faults: the BPS-under-degradation FaultSweep")
	faultRates := flag.String("fault-rates", "", "comma-separated fault rates for the FaultSweep x-axis (default 0,0.001,0.004,0.016,0.064)")
	attribOut := flag.String("attrib-out", "", "run the critical-path profiler, print the per-layer blame table, and write folded flame-graph stacks here")
	windows := flag.Float64("windows", 0, "streaming windowed estimator width in seconds (0 = off); prints the per-window BPS/IOPS/BW/ARPT series")
	serveAddr := flag.String("serve", "", "serve live observability on this address while runs execute (/metrics /windows /forecast /stream); forces -parallel 1 and defaults -windows to 0.01")
	forecastOut := flag.Bool("forecast", false, "run the online burst forecaster over the last run's window series and print per-window forecasts and alerts (needs -windows)")
	windowsOut := flag.String("windows-out", "", "write the run's window series as CSV here (needs -windows, or a live -backend where it is on by default)")
	backendName := flag.String("backend", "sim", "what serves the I/O: sim (reproduce figures), os (measure the real directory under -dir), mem (measure the in-memory filesystem)")
	dir := flag.String("dir", "", "directory tree to measure with -backend os")
	direct := flag.Bool("direct", false, "open data files with O_DIRECT on -backend os (Linux; bypasses the page cache)")
	wallClock := flag.Bool("wall", false, "live backends: time with the wall clock (real measurement) instead of deterministic per-worker virtual lanes")
	liveProcs := flag.Int("live-procs", 4, "live backends: concurrent worker processes")
	liveMB := flag.Int64("live-mb", 64, "live backends: MiB each worker reads from its slot file")
	liveRecord := flag.Int64("live-record", 1<<20, "live backends: bytes per access")
	flag.Parse()

	if *faultsFig {
		*fig = experiments.FaultFigureID
	}
	rates, err := parseRates(*faultRates)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpsbench: -fault-rates:", err)
		os.Exit(1)
	}

	switch *backendName {
	case "sim":
		// The simulated reproduction below.
	case "os", "mem":
		err := runLive(os.Stdout, liveOpts{
			backend:    *backendName,
			dir:        *dir,
			direct:     *direct,
			wall:       *wallClock,
			procs:      *liveProcs,
			perProcMB:  *liveMB,
			record:     *liveRecord,
			seed:       *seed,
			windows:    *windows,
			windowsOut: *windowsOut,
			serveAddr:  *serveAddr,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bpsbench:", err)
			os.Exit(1)
		}
		return
	default:
		fmt.Fprintf(os.Stderr, "bpsbench: unknown -backend %q (sim, os, mem)\n", *backendName)
		os.Exit(1)
	}

	if *windowsOut != "" && *windows == 0 {
		fmt.Fprintln(os.Stderr, "bpsbench: -windows-out needs -windows (no window series without the streaming estimator)")
		os.Exit(1)
	}

	if *serveAddr != "" && *windows == 0 {
		*windows = 0.01
	}
	if *forecastOut && *windows == 0 {
		fmt.Fprintln(os.Stderr, "bpsbench: -forecast needs -windows (the forecaster consumes the window series)")
		os.Exit(1)
	}
	if *serveAddr != "" {
		// One publisher serves the whole sweep; runs must tick it
		// sequentially, so the sweep cannot fan out.
		*parallel = 1
	}

	params := experiments.Params{Scale: *scale, Seed: *seed, Parallel: *parallel, FaultRates: rates}

	if *fig == experiments.SuiteFigureID {
		nseeds := *seeds
		if nseeds == 0 {
			nseeds = 5
		}
		if err := runSuiteFig(os.Stdout, params, nseeds, *rooflineOut, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, "bpsbench:", err)
			os.Exit(1)
		}
		return
	}
	if *rooflineOut != "" {
		fmt.Fprintln(os.Stderr, "bpsbench: -roofline-out needs -fig suite (the suite computes the roofline fits)")
		os.Exit(1)
	}

	if *seeds > 0 {
		r, err := experiments.RunRobustness(params, *fig, *seeds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bpsbench:", err)
			os.Exit(1)
		}
		fmt.Print(r)
		return
	}

	suite := experiments.NewSuite(params)
	if *traceOut != "" || *metricsOut != "" || *attribOut != "" || *windows > 0 || *serveAddr != "" {
		opts := &obs.Options{
			ChromeTrace: *traceOut != "",
			SampleEvery: sim.Millisecond,
			Attribution: *attribOut != "",
			WindowEvery: sim.Time(*windows * float64(sim.Second)),
		}
		if *serveAddr != "" {
			pub := serve.NewPublisher("bpsbench -fig "+*fig, forecast.Config{})
			srv, err := serve.Start(*serveAddr, pub)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bpsbench:", err)
				os.Exit(1)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "[serving live observability on http://%s]\n", srv.Addr())
			opts.Tick = pub.Hook()
		}
		suite.SetObserve(opts)
	}

	if *asCSV {
		err = runCSV(suite, *fig, *quiet)
	} else {
		err = run(suite, *fig, *quiet)
	}
	if err == nil {
		err = writeObservation(suite, *traceOut, *metricsOut, *attribOut, *windowsOut, *windows > 0, *forecastOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpsbench:", err)
		os.Exit(1)
	}
}

// runSuiteFig reproduces the IO500-style composite: the suite sweep
// under nseeds seeds, the statistical report with bootstrap CIs and
// roofline headroom, and optionally the JSON artifact.
func runSuiteFig(w io.Writer, params experiments.Params, nseeds int, rooflineOut string, quiet bool) error {
	t0 := time.Now()
	rep, err := experiments.RunSuite(params, nseeds)
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "[suite reproduced under %d seeds in %v]\n", nseeds, time.Since(t0).Round(time.Millisecond))
	}
	report.WriteSuite(w, rep)
	if rooflineOut != "" {
		f, err := os.Create(rooflineOut)
		if err != nil {
			return err
		}
		if err := report.WriteSuiteJSON(f, rep); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", rooflineOut, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[wrote suite roofline report to %s]\n", rooflineOut)
	}
	return nil
}

// liveOpts collects the -backend os|mem knobs.
type liveOpts struct {
	backend    string
	dir        string
	direct     bool
	wall       bool
	procs      int
	perProcMB  int64
	record     int64
	seed       int64
	windows    float64
	windowsOut string
	serveAddr  string
}

// liveAccesses builds the live workload: each process sequentially
// reads its own slot file in record-size chunks, back to back.
func liveAccesses(procs int, perProc, record int64) []workload.Access {
	var accs []workload.Access
	for pid := 0; pid < procs; pid++ {
		for off := int64(0); off < perProc; off += record {
			n := record
			if off+n > perProc {
				n = perProc - off
			}
			accs = append(accs, workload.Access{
				PID: int64(pid), Slot: pid, Off: off, Size: n,
			})
		}
	}
	return accs
}

// runLive measures a real backend: the -backend os|mem path. The same
// middleware chain and metric stack as a simulation, but served by
// concurrent goroutines against an actual filesystem.
func runLive(w io.Writer, o liveOpts) error {
	if o.procs < 1 || o.perProcMB < 1 || o.record < 1 {
		return fmt.Errorf("-live-procs, -live-mb and -live-record must be positive")
	}
	var fsys backend.FS
	switch o.backend {
	case "mem":
		fsys = backend.NewMemFS()
	case "os":
		if o.dir == "" {
			return fmt.Errorf("-backend os needs -dir (the directory tree to measure)")
		}
		if err := os.MkdirAll(o.dir, 0o755); err != nil {
			return err
		}
		fsys = backend.NewOSFS(o.dir, o.direct)
	}
	mode := live.Virtual
	if o.wall {
		mode = live.Wall
	}
	cfg := live.Config{
		FS:          fsys,
		Mode:        mode,
		Cost:        clock.CostModel{PerOp: 100 * sim.Microsecond, BytesPerSec: 200e6},
		WindowEvery: sim.Time(o.windows * float64(sim.Second)),
		Seed:        o.seed,
		Label:       "bpsbench -backend " + o.backend,
	}
	// The virtual clock charges exactly the cost model, so its roofline
	// is the model itself; a wall-clock run is bounded by real hardware
	// the model does not describe, so no ceiling is claimed there.
	var ceiling float64
	if mode == live.Virtual {
		m := roofline.Model{
			DeviceBytesPerSec: cfg.Cost.BytesPerSec,
			DevicePerOp:       cfg.Cost.PerOp,
			Servers:           1,
			Clients:           1,
		}
		ceiling = m.CeilingBPS(o.record, o.procs, 0)
	}
	if o.serveAddr != "" {
		pub := serve.NewPublisher(cfg.Label, forecast.Config{})
		pub.SetRoofline(ceiling)
		srv, err := serve.Start(o.serveAddr, pub)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "[serving live observability on http://%s]\n", srv.Addr())
		cfg.Publish = func(now sim.Time, src live.Source) { pub.Publish(now, src) }
	}

	accs := liveAccesses(o.procs, o.perProcMB<<20, o.record)
	t0 := time.Now()
	rep, err := live.Run(cfg, accs)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[measured %s backend (%s clock) in %v]\n",
		rep.Backend, rep.Mode, time.Since(t0).Round(time.Millisecond))

	m := rep.Metrics
	fmt.Fprintf(w, "[live %s backend, %s clock, %d workers]\n", rep.Backend, rep.Mode, o.procs)
	fmt.Fprintf(w, "  accesses (N):        %d\n", m.Ops)
	fmt.Fprintf(w, "  required blocks (B): %d\n", m.Blocks)
	fmt.Fprintf(w, "  moved bytes (M):     %d\n", m.MovedBytes)
	fmt.Fprintf(w, "  overlapped T:        %.6f s\n", m.IOTime.Seconds())
	fmt.Fprintf(w, "  exec time:           %.6f s\n", m.ExecTime.Seconds())
	fmt.Fprintf(w, "  IOPS:                %.2f ops/s\n", m.IOPS())
	fmt.Fprintf(w, "  bandwidth:           %.2f MB/s\n", m.Bandwidth()/1e6)
	fmt.Fprintf(w, "  ARPT:                %.6f s\n", m.ARPT())
	fmt.Fprintf(w, "  BPS:                 %.2f blocks/s\n", m.BPS())
	if ceiling > 0 {
		fmt.Fprintf(w, "  roofline ceiling:    %.2f blocks/s (headroom %.1f%%)\n",
			ceiling, 100*roofline.Headroom(m.BPS(), ceiling))
	}
	if rep.Errors > 0 {
		fmt.Fprintf(w, "  (%d accesses failed)\n", rep.Errors)
	}
	if o.windowsOut != "" {
		f, err := os.Create(o.windowsOut)
		if err != nil {
			return err
		}
		if err := report.WriteWindowsCSV(f, rep.Attribution); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", o.windowsOut, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[wrote window series to %s]\n", o.windowsOut)
	}
	return nil
}

// parseRates parses a comma-separated -fault-rates list; "" means nil
// (use the experiment's defaults).
func parseRates(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	rates := make([]float64, 0, len(parts))
	for _, p := range parts {
		r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("rate %g out of [0,1]", r)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

// writeObservation exports the last instrumented run's Chrome trace,
// per-layer metrics CSV, attribution report (blame table plus windowed
// series on stdout, folded stacks to attribOut), and/or burst forecast.
func writeObservation(suite *experiments.Suite, traceOut, metricsOut, attribOut, windowsOut string, windows, forecastOut bool) error {
	if traceOut == "" && metricsOut == "" && attribOut == "" && !windows && !forecastOut {
		return nil
	}
	last := suite.LastObservation()
	if last == nil {
		return fmt.Errorf("-trace-out/-metrics-out/-attrib-out/-windows: no run was reproduced (tables only?)")
	}
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
		return f.Close()
	}
	if traceOut != "" {
		if err := write(traceOut, last.Obs.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[wrote Chrome trace of run %q to %s]\n", last.Label, traceOut)
	}
	if metricsOut != "" {
		if err := write(metricsOut, func(f io.Writer) error {
			return report.WriteObsCSV(f, last.Obs.Registry())
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[wrote per-layer metrics of run %q to %s]\n", last.Label, metricsOut)
	}
	if attribOut != "" || windows {
		rep := last.Obs.Attribution()
		report.WriteAttribution(os.Stdout, rep)
		if attribOut != "" {
			if err := write(attribOut, rep.WriteFolded); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "[wrote folded stacks of run %q to %s]\n", last.Label, attribOut)
		}
		if windowsOut != "" {
			if err := write(windowsOut, func(f io.Writer) error {
				return report.WriteWindowsCSV(f, rep)
			}); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "[wrote window series of run %q to %s]\n", last.Label, windowsOut)
		}
	}
	if forecastOut {
		report.WriteForecast(os.Stdout, last.Obs.Attribution(), forecast.Config{})
	}
	return nil
}

func run(suite *experiments.Suite, fig string, quiet bool) error {
	out := os.Stdout

	switch fig {
	case "table1":
		report.WriteTable1(out)
		return nil
	case "table2":
		report.WriteTable2(out)
		return nil
	case "all":
		report.WriteTable1(out)
		report.WriteTable2(out)
		var figs []experiments.Figure
		for _, id := range experiments.FigureIDs {
			f, err := timed(suite, id, quiet)
			if err != nil {
				return err
			}
			report.WriteFigure(out, f)
			figs = append(figs, f)
		}
		report.WriteSummary(out, figs)
		report.WriteComparison(out, figs)
		for _, id := range experiments.ExtensionIDs {
			f, err := timed(suite, id, quiet)
			if err != nil {
				return err
			}
			report.WriteFigure(out, f)
		}
		return nil
	case experiments.FaultFigureID:
		f, err := timed(suite, fig, quiet)
		if err != nil {
			return err
		}
		report.WriteFaultFigure(out, f)
		return nil
	case experiments.ClientCacheFigureID:
		f, err := timed(suite, fig, quiet)
		if err != nil {
			return err
		}
		report.WriteClientCacheFigure(out, f)
		return nil
	case experiments.QoSFigureID:
		f, err := timed(suite, fig, quiet)
		if err != nil {
			return err
		}
		report.WriteQoSFigure(out, f)
		return nil
	default:
		f, err := timed(suite, fig, quiet)
		if err != nil {
			return err
		}
		report.WriteFigure(out, f)
		return nil
	}
}

// runCSV emits machine-readable rows for one figure (or every figure
// when fig is "all").
func runCSV(suite *experiments.Suite, fig string, quiet bool) error {
	ids := []string{fig}
	if fig == "all" {
		ids = append(append([]string{}, experiments.FigureIDs...), experiments.ExtensionIDs...)
	}
	for _, id := range ids {
		f, err := timed(suite, id, quiet)
		if err != nil {
			return err
		}
		if err := report.WriteFigureCSV(os.Stdout, f); err != nil {
			return err
		}
	}
	return nil
}

func timed(suite *experiments.Suite, id string, quiet bool) (experiments.Figure, error) {
	t0 := time.Now()
	f, err := suite.Figure(id)
	if err != nil {
		return f, err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "[%s reproduced in %v]\n", id, time.Since(t0).Round(time.Millisecond))
	}
	return f, nil
}
