// Command bpstrace computes the four I/O metrics — IOPS, bandwidth,
// ARPT, and BPS — from I/O trace files, implementing the BPS paper's
// measurement methodology (§III.B) as a standalone toolkit: records are
// gathered across all given traces (all processes, all applications),
// B is the total required blocks, and T is the overlapped I/O time.
//
// Usage:
//
//	bpstrace [-format auto|binary|csv|jsonl|blkparse] [-moved BYTES] [-exec SECONDS] FILE...
//
// Trace files hold one record per application access: {pid, blocks,
// start_ns, end_ns}. The binary format is the paper's 32-byte record;
// CSV (header pid,blocks,start_ns,end_ns) and JSONL are also accepted.
// When -moved is omitted, bandwidth uses the required bytes (no
// optimization-induced extra movement assumed); when -exec is omitted,
// the trace span (first start to last end) stands in for application
// execution time.
//
// Observability outputs:
//
//	bpstrace -trace-out out.json trace.bin
//	    exports the application accesses as Chrome trace-event JSON
//	    (open in Perfetto or chrome://tracing): one timeline row per
//	    process, one slice per access.
//
//	bpstrace -replay hddx4 -trace-out out.json -metrics-out metrics.csv trace.bin
//	    replays the trace on a simulated four-server HDD cluster with the
//	    observability subsystem attached; out.json then also contains the
//	    per-layer spans (pfs request handling, network transfers, device
//	    service) underneath the application rows, and metrics.csv holds
//	    the per-layer metric registry (counters, histograms, utilization
//	    probes).
//
//	bpstrace -replay hddx4 -fault-rate 0.01 trace.bin
//	    what-if under degradation: the same replay with faults injected
//	    at every layer (device errors/stragglers, link drops/delays,
//	    server fail/slow windows) while the clients ride through on the
//	    retry/failover recovery policy.
//
//	bpstrace -replay hdd,ssd,hddx4,ssdx4 trace.bin
//	    what-if comparison: replays the trace on every listed stack,
//	    fanned out across -parallel workers (default NumCPU), printing
//	    the metrics in list order. Output is bit-identical for any
//	    -parallel value; -trace-out/-metrics-out need a single stack.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"bps"
	"bps/internal/obs/forecast"
	"bps/internal/obs/serve"
	"bps/internal/report"
	"bps/internal/sim"
)

func main() {
	format := flag.String("format", "auto", "trace format: auto, binary, csv, jsonl, blkparse")
	moved := flag.Int64("moved", 0, "bytes actually moved at the file-system level (default: required bytes)")
	exec := flag.Float64("exec", 0, "application execution time in seconds (default: trace span)")
	perPID := flag.Bool("per-pid", false, "also print a per-process breakdown")
	window := flag.Float64("window", 0, "also print a windowed time series with this window in seconds")
	latency := flag.Bool("latency", false, "also print the response-time distribution and histogram")
	replay := flag.String("replay", "", "also replay the trace on simulated stacks (comma-separated what-if list): hdd, ssd, hddxN, or ssdxN (N servers)")
	faultRate := flag.Float64("fault-rate", 0, "inject faults at this rate into every -replay stack (client recovery is enabled automatically)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for multi-stack replays (results are identical for any value)")
	traceOut := flag.String("trace-out", "", "write Chrome trace-event JSON here (per-layer spans when combined with -replay)")
	metricsOut := flag.String("metrics-out", "", "write the replay's per-layer metrics as CSV here (requires a single -replay stack)")
	attribOut := flag.String("attrib-out", "", "run the replay's critical-path profiler, print the per-layer blame table, and write folded flame-graph stacks here (requires a single -replay stack)")
	windows := flag.Float64("windows", 0, "streaming windowed estimator width in seconds for the replay (requires a single -replay stack; distinct from -window, which bins the input trace post hoc)")
	windowsOut := flag.String("windows-out", "", "write the replay's window series as CSV here (requires -windows)")
	serveAddr := flag.String("serve", "", "serve the replay's live observability on this address (/metrics /windows /forecast /stream); requires a single -replay stack, defaults -windows to 0.01")
	forecastOut := flag.Bool("forecast", false, "run the online burst forecaster over the replay's window series and print per-window forecasts and alerts (requires -windows)")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "bpstrace: no trace files given")
		flag.Usage()
		os.Exit(2)
	}
	if (*serveAddr != "" || *forecastOut) && *windows == 0 {
		*windows = 0.01
	}
	opts := options{
		format:        *format,
		moved:         *moved,
		execSeconds:   *exec,
		perPID:        *perPID,
		windowSeconds: *window,
		latency:       *latency,
		replay:        *replay,
		faultRate:     *faultRate,
		parallel:      *parallel,
		traceOut:      *traceOut,
		metricsOut:    *metricsOut,
		attribOut:     *attribOut,
		windowsEvery:  *windows,
		windowsOut:    *windowsOut,
		serveAddr:     *serveAddr,
		forecast:      *forecastOut,
	}
	if err := run(os.Stdout, flag.Args(), opts); err != nil {
		fmt.Fprintln(os.Stderr, "bpstrace:", err)
		os.Exit(1)
	}
}

// options collects the report knobs.
type options struct {
	format        string
	moved         int64
	execSeconds   float64
	perPID        bool
	windowSeconds float64
	latency       bool
	replay        string
	faultRate     float64
	parallel      int
	traceOut      string
	metricsOut    string
	attribOut     string
	windowsEvery  float64
	windowsOut    string
	serveAddr     string
	forecast      bool
}

func run(w io.Writer, files []string, opts options) error {
	var records []bps.Record
	for _, name := range files {
		recs, err := readFile(name, opts.format)
		if err != nil {
			return err
		}
		records = append(records, recs...)
	}
	if len(records) == 0 {
		return fmt.Errorf("no records in %d file(s)", len(files))
	}

	required := int64(0)
	for _, r := range records {
		required += r.Blocks * bps.BlockSize
	}
	moved := opts.moved
	if moved == 0 {
		moved = required
	}
	execTime := span(records)
	if opts.execSeconds > 0 {
		execTime = bps.Time(opts.execSeconds * float64(bps.Second))
	}

	m := bps.ComputeMetrics(records, moved, execTime)
	printMetrics(w, "all", m)
	if opts.perPID {
		printPerPID(w, records)
	}
	if opts.windowSeconds > 0 {
		if err := printTimeline(w, records, opts.windowSeconds); err != nil {
			return err
		}
	}
	if opts.latency {
		d := bps.NewLatencyDist(records)
		fmt.Fprintf(w, "[%s]\n", d)
		fmt.Fprint(w, d.Histogram(40))
	}
	if opts.metricsOut != "" && opts.replay == "" {
		return fmt.Errorf("-metrics-out needs -replay: per-layer metrics only exist for a simulated run")
	}
	if (opts.attribOut != "" || opts.windowsEvery > 0) && opts.replay == "" {
		return fmt.Errorf("-attrib-out/-windows need -replay: attribution only exists for a simulated run")
	}
	if opts.serveAddr != "" && opts.replay == "" {
		return fmt.Errorf("-serve needs -replay: live observability only exists for a simulated run")
	}
	if opts.windowsOut != "" && opts.windowsEvery == 0 {
		return fmt.Errorf("-windows-out needs -windows: no window series without the streaming estimator")
	}
	if opts.replay != "" {
		if err := printReplay(w, records, opts); err != nil {
			return err
		}
	} else if opts.traceOut != "" {
		// No simulation: export the application accesses themselves.
		if err := writeFile(opts.traceOut, func(f io.Writer) error {
			return bps.WriteChromeTrace(f, records)
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Chrome trace (app layer) to %s\n", opts.traceOut)
	}
	return nil
}

// writeFile creates name and runs fn on it, closing carefully.
func writeFile(name string, fn func(io.Writer) error) error {
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

// printReplay re-runs the trace on one or more simulated stacks (a
// comma-separated what-if list, fanned out across opts.parallel workers)
// and prints each stack's metrics in list order. With a single stack,
// -trace-out/-metrics-out attach the observability subsystem and write
// the collected data.
func printReplay(w io.Writer, records []bps.Record, opts options) error {
	stacks := strings.Split(opts.replay, ",")
	observing := opts.traceOut != "" || opts.metricsOut != "" ||
		opts.attribOut != "" || opts.windowsEvery > 0 || opts.serveAddr != ""
	if observing && len(stacks) > 1 {
		return fmt.Errorf("-trace-out/-metrics-out/-attrib-out/-windows/-serve need a single -replay stack, got %d", len(stacks))
	}
	cfgs := make([]bps.RunConfig, len(stacks))
	for i, stack := range stacks {
		storage, err := bps.ParseStorage(stack)
		if err != nil {
			return err
		}
		storage.FaultRate = opts.faultRate
		cfgs[i] = bps.RunConfig{Storage: storage, Seed: 1}
	}
	if observing {
		cfgs[0].Observe = &bps.ObserveOptions{
			ChromeTrace: opts.traceOut != "",
			SampleEvery: sim.Millisecond,
			Attribution: opts.attribOut != "",
			WindowEvery: sim.Time(opts.windowsEvery * float64(sim.Second)),
		}
		if opts.serveAddr != "" {
			pub := serve.NewPublisher("bpstrace replay on "+stacks[0], forecast.Config{})
			srv, err := serve.Start(opts.serveAddr, pub)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "bpstrace: serving live observability on http://%s\n", srv.Addr())
			cfgs[0].Observe.Tick = pub.Hook()
		}
	}
	reps := make([]bps.RunReport, len(stacks))
	if err := bps.SimulateEach(opts.parallel, len(stacks), func(i int) error {
		rep, err := bps.ReplayTrace(cfgs[i], records)
		reps[i] = rep
		return err
	}); err != nil {
		return err
	}
	for i, stack := range stacks {
		printMetrics(w, "replayed on "+stack, reps[i].Metrics)
		if reps[i].Errors > 0 {
			fmt.Fprintf(w, "  (%d replayed accesses failed)\n", reps[i].Errors)
		}
	}
	if opts.traceOut != "" {
		if err := writeFile(opts.traceOut, reps[0].Obs.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Chrome trace (app + sim layers) to %s\n", opts.traceOut)
	}
	if opts.metricsOut != "" {
		if err := writeFile(opts.metricsOut, func(f io.Writer) error {
			return report.WriteObsCSV(f, reps[0].Obs.Registry())
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote per-layer metrics to %s\n", opts.metricsOut)
	}
	if opts.attribOut != "" || opts.windowsEvery > 0 {
		rep := reps[0].Attribution
		report.WriteAttribution(w, rep)
		if opts.attribOut != "" {
			if err := writeFile(opts.attribOut, rep.WriteFolded); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote folded stacks to %s\n", opts.attribOut)
		}
		if opts.windowsOut != "" {
			if err := writeFile(opts.windowsOut, func(f io.Writer) error {
				return report.WriteWindowsCSV(f, rep)
			}); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote window series to %s\n", opts.windowsOut)
		}
		if opts.forecast {
			report.WriteForecast(w, rep, forecast.Config{})
		}
	}
	return nil
}

func printTimeline(w io.Writer, records []bps.Record, windowSeconds float64) error {
	points, err := bps.Timeline(records, bps.Time(windowSeconds*float64(bps.Second)))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[timeline, window %.3fs]\n", windowSeconds)
	fmt.Fprintf(w, "  %8s %10s %10s %8s %14s %12s\n", "window", "ops", "blocks", "util", "BPS(blk/s)", "IOPS")
	for _, p := range points {
		fmt.Fprintf(w, "  %8.3f %10d %10d %7.1f%% %14.0f %12.1f\n",
			p.Start.Seconds(), p.Ops, p.Blocks, 100*p.Utilization(), p.BPS(), p.IOPS())
	}
	return nil
}

// readFile loads one trace file, sniffing the format from the extension
// when format is "auto" (.csv, .jsonl/.json; anything else is binary).
func readFile(name, format string) ([]bps.Record, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	if format == "auto" {
		switch strings.ToLower(filepath.Ext(name)) {
		case ".csv":
			format = "csv"
		case ".jsonl", ".json":
			format = "jsonl"
		case ".blkparse", ".blktrace":
			format = "blkparse"
		default:
			format = "binary"
		}
	}
	var recs []bps.Record
	switch format {
	case "binary":
		recs, err = bps.ReadTrace(f)
	case "csv":
		recs, err = bps.ReadTraceCSV(f)
	case "jsonl":
		recs, err = bps.ReadTraceJSONL(f)
	case "blkparse":
		var dropped int
		recs, dropped, err = bps.ParseBlkparse(f)
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "bpstrace: %s: %d accesses never completed, dropped\n", name, dropped)
		}
	default:
		return nil, fmt.Errorf("unknown format %q (binary, csv, jsonl, blkparse)", format)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return recs, nil
}

func span(records []bps.Record) bps.Time {
	lo, hi := records[0].Start, records[0].End
	for _, r := range records[1:] {
		if r.Start < lo {
			lo = r.Start
		}
		if r.End > hi {
			hi = r.End
		}
	}
	return hi - lo
}

func printMetrics(w io.Writer, label string, m bps.Metrics) {
	fmt.Fprintf(w, "[%s]\n", label)
	fmt.Fprintf(w, "  accesses (N):        %d\n", m.Ops)
	fmt.Fprintf(w, "  required blocks (B): %d (%d bytes)\n", m.Blocks, m.Blocks*bps.BlockSize)
	fmt.Fprintf(w, "  moved bytes (M):     %d\n", m.MovedBytes)
	fmt.Fprintf(w, "  overlapped T:        %.6f s\n", m.IOTime.Seconds())
	fmt.Fprintf(w, "  exec time:           %.6f s\n", m.ExecTime.Seconds())
	fmt.Fprintf(w, "  IOPS:                %.2f ops/s\n", m.IOPS())
	fmt.Fprintf(w, "  bandwidth:           %.2f MB/s\n", m.Bandwidth()/1e6)
	fmt.Fprintf(w, "  ARPT:                %.6f s\n", m.ARPT())
	fmt.Fprintf(w, "  BPS:                 %.2f blocks/s\n", m.BPS())
}

func printPerPID(w io.Writer, records []bps.Record) {
	byPID := make(map[int64][]bps.Record)
	for _, r := range records {
		byPID[r.PID] = append(byPID[r.PID], r)
	}
	pids := make([]int64, 0, len(byPID))
	for pid := range byPID {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		recs := byPID[pid]
		var required int64
		for _, r := range recs {
			required += r.Blocks * bps.BlockSize
		}
		m := bps.ComputeMetrics(recs, required, span(recs))
		printMetrics(w, fmt.Sprintf("pid %d", pid), m)
	}
}
