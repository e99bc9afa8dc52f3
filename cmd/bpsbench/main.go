// Command bpsbench regenerates the BPS paper's evaluation: every table
// and figure of §IV, at a configurable fraction of the paper's data
// volume — and, with -backend os|mem, measures a real or in-memory
// filesystem through the same metric stack instead of simulating one.
//
// Usage:
//
//	bpsbench [-fig all|table1|table2|fig4|...|fig12|faults|clientcache|qos|livemem|suite] [-scale 0.015625] [-seed 42] [-parallel N]
//	         [-trace-out t.json] [-metrics-out m.csv] [-attrib-out a.folded] [-windows 0.01] [-windows-out w.csv] [-forecast] [-serve :8080]
//	bpsbench -fig faults [-fault-rates 0,0.004,0.016]
//	bpsbench -fig clientcache
//	bpsbench -fig livemem
//	bpsbench -fig suite [-seeds 5] [-roofline-out suite.json]
//	bpsbench -backend mem [-live-procs 4] [-live-mb 64] [-live-record 1048576]
//	bpsbench -backend os -dir /data/bench -wall [-direct] [-metrics-out m.csv] [-windows 0.01] [-windows-out w.csv] [-forecast] [-serve :8080]
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
	"strconv"
	"strings"
	"time"

	"bps/internal/backend"
	"bps/internal/clock"
	"bps/internal/experiments"
	"bps/internal/live"
	"bps/internal/obs/obsflag"
	"bps/internal/report"
	"bps/internal/roofline"
	"bps/internal/sim"
	"bps/internal/workload"
)

// options collects bpsbench's flags.
type options struct {
	fig         string
	scale       float64
	seed        int64
	quiet       bool
	csv         bool
	seeds       int
	rooflineOut string
	faultRates  string
	backend     string
	dir         string
	direct      bool
	wall        bool
	liveProcs   int
	liveMB      int64
	liveRecord  int64
	obs         *obsflag.Flags
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if err := bench(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "bpsbench:", err)
		os.Exit(1)
	}
}

// parseArgs parses bpsbench's command line (without the program name);
// a malformed one is reported on stderr with the usage.
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("bpsbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.fig, "fig", "all", "what to reproduce: all, table1, table2, fig4..fig12, ext1..ext3, faults, clientcache, qos, livemem, or suite")
	fs.Float64Var(&o.scale, "scale", 1.0/64, "fraction of the paper's data sizes (1.0 = full scale)")
	fs.Int64Var(&o.seed, "seed", 42, "base RNG seed")
	fs.BoolVar(&o.quiet, "q", false, "suppress timing chatter")
	fs.BoolVar(&o.csv, "csv", false, "emit per-run rows (and cc rows) as CSV instead of tables")
	fs.IntVar(&o.seeds, "seeds", 0, "robustness mode: rerun the figure under N seeds and report CC ranges; for -fig suite, the number of seeds per phase (default 5)")
	fs.StringVar(&o.rooflineOut, "roofline-out", "", "with -fig suite: write the suite report (per-phase CC distributions, ceilings, headroom) as JSON here")
	fs.StringVar(&o.faultRates, "fault-rates", "", "comma-separated fault rates for the FaultSweep x-axis of -fig faults (default 0,0.001,0.004,0.016,0.064)")
	fs.StringVar(&o.backend, "backend", "sim", "what serves the I/O: sim (reproduce figures), os (measure the real directory under -dir), mem (measure the in-memory filesystem)")
	fs.StringVar(&o.dir, "dir", "", "directory tree to measure with -backend os")
	fs.BoolVar(&o.direct, "direct", false, "open data files with O_DIRECT on -backend os (Linux; bypasses the page cache)")
	fs.BoolVar(&o.wall, "wall", false, "live backends: time with the wall clock (real measurement) instead of deterministic per-worker virtual lanes")
	fs.IntVar(&o.liveProcs, "live-procs", 4, "live backends: concurrent worker processes")
	fs.Int64Var(&o.liveMB, "live-mb", 64, "live backends: MiB each worker reads from its slot file")
	fs.Int64Var(&o.liveRecord, "live-record", 1<<20, "live backends: bytes per access")
	o.obs = obsflag.Register(fs)
	return o, fs.Parse(args)
}

// bench runs what o asks for and writes its report to w.
func bench(w io.Writer, o options) error {
	rates, err := parseRates(o.faultRates)
	if err != nil {
		return fmt.Errorf("-fault-rates: %w", err)
	}

	switch o.backend {
	case "sim":
		// The simulated reproduction below.
	case "os", "mem":
		if err := o.obs.Check(obsflag.Metrics|obsflag.Windows, "a live -backend run"); err != nil {
			return err
		}
		return runLive(w, o)
	default:
		return fmt.Errorf("unknown -backend %q (sim, os, mem)", o.backend)
	}

	// Only observed figure sweeps produce observability data; the
	// multi-seed modes and the static or live-measured figures do not.
	can, what := obsflag.All, ""
	switch {
	case o.fig == experiments.SuiteFigureID:
		can, what = 0, "-fig suite"
	case o.seeds > 0:
		can, what = 0, "robustness mode (-seeds)"
	case o.fig == "table1" || o.fig == "table2" || o.fig == experiments.LiveMemFigureID:
		can, what = 0, "-fig "+o.fig
	}
	if err := o.obs.Check(can, what); err != nil {
		return err
	}

	params := experiments.Params{Scale: o.scale, Seed: o.seed, Parallel: o.obs.Parallel, FaultRates: rates}

	if o.fig == experiments.SuiteFigureID {
		nseeds := o.seeds
		if nseeds == 0 {
			nseeds = 5
		}
		return runSuiteFig(w, params, nseeds, o.rooflineOut, o.quiet)
	}
	if o.rooflineOut != "" {
		return fmt.Errorf("-roofline-out needs -fig suite (the suite computes the roofline fits)")
	}

	if o.seeds > 0 {
		r, err := experiments.RunRobustness(params, o.fig, o.seeds)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r)
		return nil
	}

	suite := experiments.NewSuite(params)
	publish, stop, err := o.obs.StartServe("bpsbench -fig "+o.fig, 0)
	if err != nil {
		return err
	}
	defer stop()
	observe := o.obs.Options(publish)
	suite.SetObserve(observe)

	if o.csv {
		err = runCSV(w, suite, o.fig, o.quiet)
	} else {
		err = run(w, suite, o.fig, o.quiet)
	}
	if err != nil || observe == nil {
		return err
	}
	last := suite.LastObservation()
	if last == nil {
		return fmt.Errorf("-fig %s observed no run", o.fig)
	}
	return o.obs.Export(w, obsflag.Run{
		Label:    last.Label,
		Trace:    last.Obs.WriteChromeTrace,
		Registry: last.Obs.Registry(),
		Report:   last.Obs.Attribution(),
	})
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
		return obsflag.WriteFile(rooflineOut, "suite roofline report", func(f io.Writer) error {
			return report.WriteSuiteJSON(f, rep)
		})
	}
	return nil
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
func runLive(w io.Writer, o options) error {
	if o.liveProcs < 1 || o.liveMB < 1 || o.liveRecord < 1 {
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
		WindowEvery: o.obs.WindowEvery(),
		Seed:        o.seed,
		Label:       "bpsbench -backend " + o.backend,
	}
	// The virtual clock charges exactly the cost model on every
	// worker's own lane, so its roofline is the model times the worker
	// count; a wall-clock run is bounded by real hardware the model does
	// not describe, so no ceiling is claimed there.
	var ceiling float64
	if mode == live.Virtual {
		m := roofline.Model{
			DeviceBytesPerSec: cfg.Cost.BytesPerSec,
			DevicePerOp:       cfg.Cost.PerOp,
			Servers:           o.liveProcs,
			Clients:           1,
		}
		ceiling = m.CeilingBPS(o.liveRecord, o.liveProcs, 0)
	}
	publish, stop, err := o.obs.StartServe(cfg.Label, ceiling)
	if err != nil {
		return err
	}
	defer stop()
	if publish != nil {
		cfg.Publish = func(now sim.Time, src live.Source) { publish(now, src) }
	}

	accs := liveAccesses(o.liveProcs, o.liveMB<<20, o.liveRecord)
	t0 := time.Now()
	rep, err := live.Run(cfg, accs)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[measured %s backend (%s clock) in %v]\n",
		rep.Backend, rep.Mode, time.Since(t0).Round(time.Millisecond))

	m := rep.Metrics
	report.WriteMetrics(w, fmt.Sprintf("live %s backend, %s clock, %d workers", rep.Backend, rep.Mode, o.liveProcs), m)
	if ceiling > 0 {
		fmt.Fprintf(w, "  roofline ceiling:    %.2f blocks/s (headroom %.1f%%)\n",
			ceiling, 100*roofline.Headroom(m.BPS(), ceiling))
	}
	if rep.Errors > 0 {
		fmt.Fprintf(w, "  (%d accesses failed)\n", rep.Errors)
	}
	return o.obs.Export(w, obsflag.Run{Label: cfg.Label, Registry: rep.Registry, Report: rep.Attribution})
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

func run(out io.Writer, suite *experiments.Suite, fig string, quiet bool) error {
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
	}
	f, err := timed(suite, fig, quiet)
	if err != nil {
		return err
	}
	write := report.WriteFigure
	switch fig {
	case experiments.FaultFigureID:
		write = report.WriteFaultFigure
	case experiments.ClientCacheFigureID:
		write = report.WriteClientCacheFigure
	case experiments.QoSFigureID:
		write = report.WriteQoSFigure
	}
	write(out, f)
	return nil
}

// runCSV emits machine-readable rows for one figure (or every figure
// when fig is "all").
func runCSV(w io.Writer, suite *experiments.Suite, fig string, quiet bool) error {
	ids := []string{fig}
	if fig == "all" {
		ids = append(append([]string{}, experiments.FigureIDs...), experiments.ExtensionIDs...)
	}
	for _, id := range ids {
		f, err := timed(suite, id, quiet)
		if err != nil {
			return err
		}
		if err := report.WriteFigureCSV(w, f); err != nil {
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
