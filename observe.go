package bps

import (
	"io"

	"bps/internal/obs"
	"bps/internal/obs/attrib"
	"bps/internal/sim"
)

// ObserveOptions configures run observability: Chrome trace-event
// collection, the time-series sampler interval, and per-resource queue
// counter tracks. A nil *ObserveOptions in RunConfig (the default)
// disables observability entirely; an observed run produces bit-identical
// metrics and records to an unobserved one.
type ObserveOptions = obs.Options

// Observer is a run's attached observability handle: the metrics
// registry and the Chrome trace buffer (with the sampler's counter
// tracks) collected while the simulation ran. RunReport.Obs exposes it after an observed run.
type Observer = obs.Observer

// Attribution is the critical-path profiler's report for one run: the
// per-layer exclusive decomposition of the overlapped time T, folded
// flame-graph stacks, latency quantiles, and the streaming windowed
// time series. RunReport.Attribution exposes it when ObserveOptions
// enabled Attribution or WindowEvery.
type Attribution = attrib.Report

// attachObserver installs an observer on a fresh engine when the run
// config asks for one.
func attachObserver(e *sim.Engine, cfg RunConfig) *Observer {
	if cfg.Observe == nil {
		return nil
	}
	return obs.Attach(e, *cfg.Observe)
}

// WriteChromeTrace writes records as Chrome trace-event JSON (loadable
// in Perfetto or chrome://tracing): one thread per process ID, one
// complete event per access. It works on any record source — a prior
// simulation, iogen output, or imported blkparse data — without running
// a simulation. For per-layer spans underneath the application
// intervals, run with RunConfig.Observe and use Observer.WriteChromeTrace.
func WriteChromeTrace(w io.Writer, records []Record) error {
	buf := obs.NewTraceBuffer()
	for _, r := range records {
		buf.AppSpan(r.PID, r.Blocks, r.Start, r.End)
	}
	return buf.Write(w)
}
