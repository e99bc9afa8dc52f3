// Command bpsd is the live observability daemon: it runs a simulated
// workload — a synthetic sequential read by default, or a replay of
// ingested Darshan-style logs — with the streaming window estimator and
// the online burst forecaster attached, and serves the run's state over
// HTTP while it executes:
//
//	/metrics   Prometheus text exposition (registry + latest window + forecasts)
//	/windows   JSON window series (BPS, bandwidth, IOPS, ARPT, utilization)
//	/forecast  JSON per-series forecasts, model selection, and burst alerts
//	/roofline  JSON live headroom against the workload's analytic BPS ceiling
//	/stream    Server-Sent Events: windows and alerts as they close
//
// Serving is timing-neutral: the exported snapshots are built on sampler
// ticks inside the simulation without consuming simulated time, so a run
// under bpsd produces bit-identical metrics to the same run without it.
// Simulated runs complete far faster than the I/O they model; -pace adds
// wall-clock delay per sampler tick so the stream is observable in human
// time (simulated results are unaffected).
//
// Usage:
//
//	bpsd [-addr :8090] [-stack hddx4] [-seed 1] [-window 0.01] [-sample 0.001]
//	     [-pace 0] [-loop] [-burst-k 2.5] [-fault-rate 0]
//	     [-jobs] [-max-jobs 32] [-batch-wait 50ms] [-grace 10s] [LOGFILE...]
//
// With log file arguments the workload is an ingested replay (see the
// README's ingestion format: CSV segment tables or JSONL); without, a
// -procs × -mb sequential read. -loop reruns the workload forever, so
// the endpoints stay live; otherwise bpsd serves the final state until
// interrupted.
//
// With -jobs (the default) bpsd additionally accepts concurrent
// workload submissions over HTTP once the base run finishes:
//
//	POST   /jobs      submit {"tenant","priority","bps_floor","procs","mb",...}
//	GET    /jobs/{id} job state, metrics, and QoS outcome
//	DELETE /jobs/{id} cancel a queued job
//	GET    /qos       last batch's full QoS controller report
//	GET    /healthz   liveness + queue depth + stream backpressure
//
// Submissions arriving within one -batch-wait window run together as
// tenants of a single multi-tenant simulation under the QoS admission
// controller (internal/qos): tenants with a bps_floor are protected,
// lower-priority tenants are throttled or shed when the floor is
// violated. The queue is bounded by -max-jobs; past it submissions get
// 429 with Retry-After. SIGTERM drains accepted jobs within -grace,
// then exits cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bps"
	"bps/internal/obs"
	"bps/internal/obs/forecast"
	"bps/internal/obs/serve"
	"bps/internal/sim"
)

func main() {
	addr := flag.String("addr", ":8090", "HTTP listen address")
	stack := flag.String("stack", "hddx4", "simulated stack: hdd, ssd, hddxN, ssdxN (N servers)")
	seed := flag.Int64("seed", 1, "simulation seed (equal seeds give identical runs)")
	window := flag.Float64("window", 0.01, "streaming estimator window width in seconds")
	sample := flag.Float64("sample", 0.001, "sampler tick interval in seconds (drives snapshot publication)")
	pace := flag.Duration("pace", 0, "wall-clock delay per sampler tick (makes the stream observable; simulated time unaffected)")
	loop := flag.Bool("loop", false, "rerun the workload forever instead of serving the final state")
	burstK := flag.Float64("burst-k", 2.5, "burst alert threshold: observed or forecast rate above k×baseline")
	faultRate := flag.Float64("fault-rate", 0, "inject faults at this rate into the stack")
	procs := flag.Int("procs", 4, "synthetic workload: process count (ignored with log files)")
	mb := flag.Int64("mb", 64, "synthetic workload: MiB per process (ignored with log files)")
	record := flag.Int64("record", 1<<20, "synthetic workload: record size in bytes (ignored with log files)")
	jobs := flag.Bool("jobs", true, "serve the multi-tenant jobs API (POST /jobs) after the base run")
	maxJobs := flag.Int("max-jobs", 32, "job queue bound; submissions past it get 429 + Retry-After")
	batchWait := flag.Duration("batch-wait", 50*time.Millisecond, "window to coalesce concurrent submissions into one multi-tenant run")
	grace := flag.Duration("grace", 10*time.Second, "SIGTERM drain deadline for accepted jobs")
	flag.Parse()

	opts := options{
		addr: *addr, stack: *stack, seed: *seed,
		window: *window, sample: *sample, pace: *pace, loop: *loop,
		burstK: *burstK, faultRate: *faultRate,
		procs: *procs, mb: *mb, record: *record,
		jobs: *jobs, maxJobs: *maxJobs, batchWait: *batchWait, grace: *grace,
	}
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validate(opts, flag.Args(), set); err != nil {
		fmt.Fprintln(os.Stderr, "bpsd:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Args(), opts); err != nil {
		fmt.Fprintln(os.Stderr, "bpsd:", err)
		os.Exit(1)
	}
}

type options struct {
	addr      string
	stack     string
	seed      int64
	window    float64
	sample    float64
	pace      time.Duration
	loop      bool
	burstK    float64
	faultRate float64
	procs     int
	mb        int64
	record    int64
	jobs      bool
	maxJobs   int
	batchWait time.Duration
	grace     time.Duration
}

// validate fails fast on bad or conflicting flags — with a usage
// message, before the listener starts, instead of a panic mid-run. set
// holds the flags the user passed explicitly, so "-pace 0" (explicitly
// asking for zero pacing) is distinguishable from the default.
func validate(opts options, logs []string, set map[string]bool) error {
	if _, err := bps.ParseStorage(opts.stack); err != nil {
		return err
	}
	switch {
	case opts.pace < 0, set["pace"] && opts.pace == 0:
		return fmt.Errorf("-pace must be a positive duration (it is the wall-clock delay per sampler tick)")
	case opts.loop && len(logs) > 0:
		return fmt.Errorf("-loop conflicts with a finite log replay: every iteration replays the identical log; drop -loop or the log files")
	case opts.loop && opts.jobs:
		return fmt.Errorf("-loop conflicts with the jobs API (the publisher serves one run at a time); pass -jobs=false to loop")
	case opts.window <= 0:
		return fmt.Errorf("-window must be positive")
	case opts.sample <= 0:
		return fmt.Errorf("-sample must be positive")
	case opts.burstK <= 0:
		return fmt.Errorf("-burst-k must be positive")
	case opts.faultRate < 0 || opts.faultRate > 1:
		return fmt.Errorf("-fault-rate must be in [0, 1]")
	case opts.procs < 1:
		return fmt.Errorf("-procs must be at least 1")
	case opts.mb < 1:
		return fmt.Errorf("-mb must be at least 1")
	case opts.record < 512:
		return fmt.Errorf("-record must be at least one 512-byte block")
	case opts.maxJobs < 1:
		return fmt.Errorf("-max-jobs must be at least 1")
	case opts.batchWait < 0:
		return fmt.Errorf("-batch-wait must not be negative")
	case opts.grace <= 0:
		return fmt.Errorf("-grace must be positive")
	}
	return nil
}

func run(w io.Writer, logs []string, opts options) error {
	storage, err := bps.ParseStorage(opts.stack)
	if err != nil {
		return err
	}
	storage.FaultRate = opts.faultRate

	var ioLog *bps.IOLog
	label := fmt.Sprintf("seqread %d×%dMiB on %s", opts.procs, opts.mb, opts.stack)
	if len(logs) > 0 {
		if ioLog, err = bps.ReadLogs(logs...); err != nil {
			return err
		}
		label = fmt.Sprintf("replay of %s on %s (%d segments)",
			strings.Join(logs, ","), opts.stack, ioLog.Len())
	}

	pub := serve.NewPublisher(label, forecast.Config{BurstK: opts.burstK})

	// The synthetic workload has one record size and process count, so
	// its analytic BPS ceiling is well-defined; /roofline then serves
	// live headroom against it. A log replay mixes request sizes, so no
	// ceiling is claimed there.
	var ceiling float64
	if ioLog == nil {
		ceiling = bps.RooflineCeiling(storage, opts.record, opts.procs)
		pub.SetRoofline(ceiling)
	}

	hook := pub.Hook()
	tick := hook
	if opts.pace > 0 {
		tick = func(now sim.Time, o *obs.Observer) {
			hook(now, o)
			time.Sleep(opts.pace)
		}
	}
	observe := &bps.ObserveOptions{
		SampleEvery: sim.Time(opts.sample * float64(sim.Second)),
		WindowEvery: sim.Time(opts.window * float64(sim.Second)),
		Tick:        tick,
	}
	cfg := bps.RunConfig{Storage: storage, Seed: opts.seed, Observe: observe}

	mux := http.NewServeMux()
	var mgr *jobManager
	if opts.jobs {
		mgr = newJobManager(opts, storage, func() *bps.ObserveOptions { return observe }, w)
		mgr.mount(mux, pub)
	}
	mux.Handle("/", pub.Handler())
	srv, err := serve.StartHandler(opts.addr, mux)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(w, "bpsd: serving %s on http://%s (/metrics /windows /forecast /roofline /stream)\n", label, srv.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	for iter := 0; ; iter++ {
		var rep bps.RunReport
		if ioLog != nil {
			rep, err = bps.ReplayLog(cfg, ioLog)
		} else {
			rep, err = bps.SimulateSequentialRead(cfg, opts.procs, opts.mb<<20, opts.record)
		}
		if err != nil {
			return err
		}
		m := rep.Metrics
		fmt.Fprintf(w, "bpsd: run %d done: B=%d T=%.6fs BPS=%.2f blk/s IOPS=%.2f BW=%.2f MB/s alerts=%d\n",
			iter, m.Blocks, m.IOTime.Seconds(), m.BPS(), m.IOPS(), m.Bandwidth()/1e6,
			len(pub.Tracker().Alerts()))
		if ceiling > 0 {
			fmt.Fprintf(w, "bpsd: run %d roofline: ceiling %.2f blk/s, headroom %.1f%%\n",
				iter, ceiling, 100*bps.Headroom(m.BPS(), ceiling))
		}
		if !opts.loop {
			break
		}
		select {
		case <-stop:
			return nil
		default:
		}
		// The publisher detects the next run's fresh observer and
		// restarts its window feed on the first tick.
	}

	if mgr != nil {
		// The publisher serves one run at a time, so job batches start
		// only after the base run released it.
		mgr.start()
		fmt.Fprintln(w, "bpsd: jobs API live (POST /jobs); serving until interrupted")
	} else {
		fmt.Fprintln(w, "bpsd: serving final state; interrupt to exit")
	}
	<-stop

	// Graceful drain: finish accepted jobs within the grace window, then
	// shut the listener down. SSE streams never end on their own, so the
	// HTTP shutdown gets a short deadline before the hard close.
	fmt.Fprintln(w, "bpsd: draining")
	var drainErr error
	if mgr != nil {
		drainErr = mgr.drain(opts.grace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	if drainErr != nil {
		return drainErr
	}
	fmt.Fprintln(w, "bpsd: drained cleanly")
	return nil
}
