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
// -replay hddx4 re-runs the trace on a simulated four-server HDD
// cluster (-fault-rate R injects faults at every layer while the clients
// ride through on retry/failover); a comma-separated list compares
// several stacks, fanned out across -parallel workers with output
// bit-identical for any worker count. The observability flags shared
// with bpsbench (-trace-out, -metrics-out, -attrib-out, -windows,
// -windows-out, -forecast, -serve) observe a single-stack replay;
// without -replay, -trace-out exports the trace's own accesses as
// Chrome trace-event JSON and the others are rejected.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bps"
	"bps/internal/obs/obsflag"
	"bps/internal/report"
)

func main() {
	opts, files, err := parseArgs(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if err := run(os.Stdout, files, opts); err != nil {
		fmt.Fprintln(os.Stderr, "bpstrace:", err)
		os.Exit(1)
	}
}

// parseArgs parses bpstrace's command line (without the program name)
// into the report knobs and the trace files; a malformed one, or one
// naming no file, is reported on stderr with the usage.
func parseArgs(args []string) (options, []string, error) {
	fs := flag.NewFlagSet("bpstrace", flag.ContinueOnError)
	var opts options
	fs.StringVar(&opts.format, "format", "auto", "trace format: auto, binary, csv, jsonl, blkparse")
	fs.Int64Var(&opts.moved, "moved", 0, "bytes actually moved at the file-system level (default: required bytes)")
	fs.Float64Var(&opts.execSeconds, "exec", 0, "application execution time in seconds (default: trace span)")
	fs.BoolVar(&opts.perPID, "per-pid", false, "also print a per-process breakdown")
	fs.Float64Var(&opts.windowSeconds, "window", 0, "also print a windowed time series of the input trace with this window in seconds (post hoc; -windows is the replay's streaming series)")
	fs.BoolVar(&opts.latency, "latency", false, "also print the response-time distribution and histogram")
	fs.StringVar(&opts.replay, "replay", "", "also replay the trace on simulated stacks (comma-separated what-if list): hdd, ssd, hddxN, or ssdxN (N servers)")
	fs.Float64Var(&opts.faultRate, "fault-rate", 0, "inject faults at this rate into every -replay stack (client recovery is enabled automatically)")
	obsFlags := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return opts, nil, err
	}
	opts.obs = *obsFlags
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "bpstrace: no trace files given")
		fs.Usage()
		return opts, nil, fmt.Errorf("no trace files given")
	}
	return opts, fs.Args(), nil
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
	obs           obsflag.Flags
}

func run(w io.Writer, files []string, opts options) error {
	// The replay is the only simulated run: without it the trace's own
	// accesses make an app-layer Chrome trace and nothing else, and a
	// what-if list has no single run to observe.
	can, what := obsflag.ChromeTrace, "a trace without -replay"
	if strings.Contains(opts.replay, ",") {
		can, what = 0, "a multi-stack -replay"
	} else if opts.replay != "" {
		can = obsflag.All
	}
	if err := opts.obs.Check(can, what); err != nil {
		return err
	}

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
	execTime := bps.Span(records)
	if opts.execSeconds > 0 {
		execTime = bps.Time(opts.execSeconds * float64(bps.Second))
	}

	m := bps.ComputeMetrics(records, moved, execTime)
	report.WriteMetrics(w, "all", m)
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
	if opts.replay != "" {
		return printReplay(w, records, opts)
	}
	// No simulation: -trace-out exports the application accesses.
	return opts.obs.Export(w, obsflag.Run{
		Label: "app layer",
		Trace: func(f io.Writer) error { return bps.WriteChromeTrace(f, records) },
	})
}

// printReplay re-runs the trace on one or more simulated stacks (a
// comma-separated what-if list, fanned out across -parallel workers)
// and prints each stack's metrics in list order. A single stack runs
// with the observability the flags ask for and exports it.
func printReplay(w io.Writer, records []bps.Record, opts options) error {
	stacks := strings.Split(opts.replay, ",")
	cfgs := make([]bps.RunConfig, len(stacks))
	for i, stack := range stacks {
		storage, err := bps.ParseStorage(stack)
		if err != nil {
			return err
		}
		storage.FaultRate = opts.faultRate
		cfgs[i] = bps.RunConfig{Storage: storage, Seed: 1}
	}
	publish, stop, err := opts.obs.StartServe("bpstrace replay on "+stacks[0], 0)
	if err != nil {
		return err
	}
	defer stop()
	cfgs[0].Observe = opts.obs.Options(publish)
	reps := make([]bps.RunReport, len(stacks))
	if err := bps.SimulateEach(opts.obs.Parallel, len(stacks), func(i int) error {
		rep, err := bps.ReplayTrace(cfgs[i], records)
		reps[i] = rep
		return err
	}); err != nil {
		return err
	}
	for i, stack := range stacks {
		report.WriteMetrics(w, "replayed on "+stack, reps[i].Metrics)
		if reps[i].Errors > 0 {
			fmt.Fprintf(w, "  (%d replayed accesses failed)\n", reps[i].Errors)
		}
	}
	return opts.obs.Export(w, obsflag.Run{
		Label:    "replayed on " + stacks[0],
		Trace:    reps[0].Obs.WriteChromeTrace,
		Registry: reps[0].Obs.Registry(),
		Report:   reps[0].Attribution,
	})
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
		m := bps.ComputeMetrics(recs, required, bps.Span(recs))
		report.WriteMetrics(w, fmt.Sprintf("pid %d", pid), m)
	}
}
