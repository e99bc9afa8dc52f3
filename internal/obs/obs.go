// Package obs is the cross-layer observability subsystem of the
// simulated I/O stack: a lightweight metrics registry (counters,
// fixed-bucket log-scale histograms, probes over live state, and a
// periodic streaming sampler driven by a simulation daemon that reads
// counters, then probes), structured event hooks on the sim
// engine (event dispatch, process lifecycle, resource admission), and a
// Chrome trace-event exporter whose output loads in Perfetto or
// chrome://tracing.
//
// The design goal is that uninstrumented runs pay nothing: every entry
// point is nil-receiver-safe, the engine hooks are plain nil checks, and
// attaching an observer never consumes simulated time — a run with
// observability on produces bit-identical metrics to the same run with
// it off.
//
// The BPS paper argues that single-number metrics hide where I/O time
// goes; this package is the reproduction's answer for its own simulator.
// Where the paper's Fig. 3 computes the overlapped union of
// application-level access intervals, the observer records the per-layer
// spans *inside* those intervals (device service, network transfer, PFS
// request handling), so a BPS value can be decomposed into the layer
// activity that produced it.
package obs

import (
	"io"
	"strings"

	"bps/internal/core"
	"bps/internal/obs/attrib"
	"bps/internal/sim"
	"bps/internal/trace"
)

// Options configures an observer.
type Options struct {
	// ChromeTrace enables span and counter collection for the Chrome
	// trace-event export.
	ChromeTrace bool

	// SampleEvery is the sampler daemon's tick interval; 0 disables the
	// sampler.
	SampleEvery sim.Time

	// QueueCounters, when tracing, also emits per-resource in-use and
	// queue-depth counter tracks on every resource state change. Rich but
	// verbose; off by default.
	QueueCounters bool

	// Attribution enables the critical-path profiler: layer spans are
	// collected (even when ChromeTrace is off) and Observer.Attribution
	// returns the per-layer decomposition of the overlapped time T.
	Attribution bool

	// WindowEvery, when positive, sizes the streaming windowed
	// estimator's fixed windows: BPS/IOPS/bandwidth/ARPT per window,
	// fed live at access completion (Observer.AppAccess) and returned
	// in the attribution report.
	WindowEvery sim.Time

	// Tick, when set, runs at the end of every sampler pass (each
	// periodic tick and the final FinishSampling), in simulation
	// context. It must not consume simulated time: the live-serving
	// layer uses it to snapshot the registry and window series without
	// perturbing the run. Requires SampleEvery > 0 to fire periodically.
	Tick func(now sim.Time, o *Observer)
}

// Observer ties the pieces together for one engine: it implements
// sim.Tracer for the structured engine hooks, owns the metrics registry
// and optional trace buffer, and is the handle instrumented layers
// (device, netsim, pfs) discover via Get. A nil *Observer is the no-op
// default: every method is safe to call and does nothing.
type Observer struct {
	eng     *sim.Engine
	clock   sim.TimeSource // the engine for sim runs; pluggable for live ones
	reg     *Registry
	buf     *TraceBuffer      // nil when ChromeTrace is off
	sampler *Sampler          // nil when SampleEvery is 0
	attrib  *attrib.Collector // nil unless Attribution or WindowEvery
	spans   bool              // Attribution: collect layer spans
	opts    Options

	// Engine-level metrics.
	events       *Counter
	procsStarted *Counter
	procsEnded   *Counter

	// Per-resource metric handles, cached so tracer callbacks do one map
	// lookup by pointer instead of string formatting per event.
	resources map[*sim.Resource]*resMetrics
}

// resMetrics caches one resource's metric handles.
type resMetrics struct {
	acquires *Counter
	waitNS   *Histogram
	inUse    string // counter-track names (QueueCounters)
	queued   string
}

// Attach creates an observer, installs it as the engine's tracer, and
// (per opts) starts the sampler daemon. Call it right after NewEngine,
// before building the simulated stack, so component constructors find it
// via Get.
func Attach(e *sim.Engine, opts Options) *Observer {
	o := &Observer{
		eng:       e,
		clock:     e,
		reg:       NewRegistry(),
		opts:      opts,
		resources: make(map[*sim.Resource]*resMetrics),
	}
	o.events = o.reg.Counter("sim/engine/events")
	o.procsStarted = o.reg.Counter("sim/engine/procs_started")
	o.procsEnded = o.reg.Counter("sim/engine/procs_ended")
	if opts.ChromeTrace {
		o.buf = NewTraceBuffer()
	}
	if opts.Attribution || opts.WindowEvery > 0 {
		o.attrib = attrib.NewCollector(attrib.Config{
			Spans:       opts.Attribution,
			WindowEvery: opts.WindowEvery,
		})
		o.spans = opts.Attribution
	}
	e.SetTracer(o)
	if opts.SampleEvery > 0 {
		o.sampler = o.reg.StartSampler(e, opts.SampleEvery)
		if o.buf != nil {
			o.sampler.onSample = func(name string, at sim.Time, v float64) {
				o.buf.counter(name, at, v)
			}
		}
		if opts.Tick != nil {
			o.sampler.onTick = func(now sim.Time) { opts.Tick(now, o) }
		}
	}
	return o
}

// Get returns the observer attached to e, or nil when the engine is
// uninstrumented. Component constructors call this once and keep the
// (possibly nil) handle.
func Get(e *sim.Engine) *Observer {
	o, _ := e.GetTracer().(*Observer)
	return o
}

// now is the observer's own clock read. For simulated runs the clock is
// the engine itself, so this is exactly the old eng.Now() — timing
// neutrality is preserved by construction. A live run may install a
// wall or virtual timeline via SetClock.
func (o *Observer) now() sim.Time { return o.clock.Now() }

// SetClock repoints the observer's timeline. Call before any
// measurement starts; the default is the attached engine. Live drivers
// use this so tracer timestamps (if any fire) land on the live
// timeline rather than the dormant engine's frozen clock.
func (o *Observer) SetClock(ts sim.TimeSource) {
	if o == nil || ts == nil {
		return
	}
	o.clock = ts
}

// Registry returns the metrics registry (nil for a nil observer, which
// the registry's own nil-safety absorbs).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// TraceBuffer returns the Chrome trace buffer, or nil.
func (o *Observer) TraceBuffer() *TraceBuffer {
	if o == nil {
		return nil
	}
	return o.buf
}

// Tracing reports whether Chrome trace collection is enabled — use it to
// guard span-name or argument construction.
func (o *Observer) Tracing() bool { return o != nil && o.buf != nil }

// Spanning reports whether Begin/End have any consumer — Chrome trace
// collection or the attribution profiler. Instrumented layers guard
// span opening with it and build argument maps only when Tracing().
func (o *Observer) Spanning() bool { return o != nil && (o.buf != nil || o.spans) }

// Begin opens a span in p's timeline under category cat (the layer:
// "device", "net", "pfs", ...). args may be nil; build it only when
// Tracing() to keep uninstrumented paths allocation-free. When the
// attribution profiler is on, the span's close also charges its
// [start, end) to the layer LayerOf(cat, name) classifies.
func (o *Observer) Begin(p *sim.Proc, cat, name string, args map[string]any) Span {
	if o == nil || (o.buf == nil && !o.spans) {
		return Span{}
	}
	sp := Span{o: o}
	if o.buf != nil {
		if r, ok := p.Ctx().(traceIDed); ok {
			if args == nil {
				args = make(map[string]any, 1)
			}
			args["req"] = r.TraceID()
		}
		if t, ok := p.Ctx().(tenanted); ok {
			if id := t.TenantID(); id != "" {
				if args == nil {
					args = make(map[string]any, 1)
				}
				args["tenant"] = id
			}
		}
		sp.idx = o.buf.span(p, cat, name, o.now(), args)
		sp.ok = true
	}
	if o.spans {
		if layer := attrib.LayerOf(cat, name); layer >= 0 {
			sp.layer = layer + 1 // 0 means "no attribution"
			sp.start = o.now()
		}
	}
	if !sp.ok && sp.layer == 0 {
		return Span{}
	}
	return sp
}

// traceIDed is the request-context hook: when the calling proc's context
// (sim.Proc.Ctx) implements it — ioreq.Request does — every span opened
// on that proc carries a "req" argument with the request identifier, the
// thread that stitches one logical access's spans across layers.
type traceIDed interface{ TraceID() uint64 }

// tenanted is the multi-tenant counterpart of traceIDed: requests that
// carry a tenant identity (ioreq.Request does) stamp a "tenant"
// argument on every span opened while they are in flight. Single-tenant
// requests report "" and add nothing, keeping their traces byte-
// identical to the pre-QoS output.
type tenanted interface{ TenantID() string }

// AddAppRecord converts one gathered application trace record into an
// "app" layer span, one Chrome thread per application PID. Records share
// the simulation's timeline, so they align with the per-layer spans
// below them. The same intervals feed the attribution profiler as the
// application union — the T the per-layer blame partitions.
func (o *Observer) AddAppRecord(pid, blocks int64, start, end sim.Time) {
	if o == nil {
		return
	}
	if o.attrib != nil {
		o.attrib.AddApp(start, end)
	}
	if o.buf != nil {
		o.buf.AppSpan(pid, blocks, start, end)
	}
}

// AppAccess feeds one completed application access to the streaming
// windowed estimator, at completion time — the middleware's trace
// capture sites call it alongside trace.Collector.Record. A nil or
// windows-disabled observer absorbs the call; it never touches
// simulated time.
func (o *Observer) AppAccess(blocks int64, start, end sim.Time) {
	if o == nil || o.attrib == nil {
		return
	}
	o.attrib.AddAccess(blocks, start, end)
}

// AppendLiveWindows appends the streaming estimator's window series as
// of the current simulated time to dst, without computing the memoized
// report — safe to call mid-run from a Tick hook. It appends nothing
// when windows are disabled.
func (o *Observer) AppendLiveWindows(dst []core.Window) []core.Window {
	if o == nil || o.attrib == nil {
		return dst
	}
	return o.attrib.AppendLiveWindows(dst)
}

// WindowEvery returns the streaming estimator's window width (0 when
// windows are disabled).
func (o *Observer) WindowEvery() sim.Time {
	if o == nil || o.attrib == nil {
		return 0
	}
	return o.attrib.WindowEvery()
}

// Attribution computes (once) and returns the run's critical-path
// attribution report, or nil when neither Attribution nor WindowEvery
// was requested. Call it after the application records have been added
// via AddAppRecord — the report's T is their union.
func (o *Observer) Attribution() *attrib.Report {
	if o == nil || o.attrib == nil {
		return nil
	}
	rep := o.attrib.Report()
	if rep.Latency == nil {
		rep.Latency = latencyRows(o.reg)
	}
	return rep
}

// latencyRows harvests every duration histogram (the "_ns" convention)
// into per-request latency quantile rows.
func latencyRows(reg *Registry) []attrib.LatencyRow {
	var rows []attrib.LatencyRow
	for _, h := range reg.Histograms() {
		if !strings.HasSuffix(h.Name(), "_ns") || h.Count() == 0 {
			continue
		}
		rows = append(rows, attrib.LatencyRow{
			Name:  h.Name(),
			Count: h.Count(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
			Max:   h.Max(),
		})
	}
	return rows
}

// FinishSampling takes the sampler's final sample at the engine's
// current time, covering the tail after the last foreground event —
// where the sampler daemon's pending background tick never fires.
func (o *Observer) FinishSampling() {
	if o == nil || o.sampler == nil {
		return
	}
	o.sampler.Finish(o.now())
}

// FinishRun completes an observed run at teardown: it takes the
// sampler's final sample (FinishSampling) and adds the run's gathered
// application records (AddAppRecord), aligning the application timeline
// with the per-layer spans recorded live. A nil observer absorbs the
// call.
func (o *Observer) FinishRun(records []trace.Record) {
	if o == nil {
		return
	}
	o.FinishSampling()
	for _, r := range records {
		o.AddAppRecord(r.PID, r.Blocks, r.Start, r.End)
	}
}

// WriteChromeTrace writes the collected Chrome trace-event JSON.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	if o == nil || o.buf == nil {
		return (&TraceBuffer{}).Write(w)
	}
	return o.buf.Write(w)
}

// --- sim.Tracer implementation -------------------------------------

// EventDispatched implements sim.Tracer.
func (o *Observer) EventDispatched(now sim.Time, nevents uint64) {
	o.events.Add(1)
}

// ProcStarted implements sim.Tracer.
func (o *Observer) ProcStarted(p *sim.Proc) {
	o.procsStarted.Add(1)
}

// ProcEnded implements sim.Tracer.
func (o *Observer) ProcEnded(p *sim.Proc) {
	o.procsEnded.Add(1)
}

// resOf returns (creating on first sight) the cached handles for r.
func (o *Observer) resOf(r *sim.Resource) *resMetrics {
	if m, ok := o.resources[r]; ok {
		return m
	}
	base := "resource/" + r.Name() + "/"
	m := &resMetrics{
		acquires: o.reg.Counter(base + "acquires"),
		waitNS:   o.reg.Histogram(base + "wait_ns"),
	}
	if o.opts.QueueCounters && o.buf != nil {
		m.inUse = r.Name() + " in_use"
		m.queued = r.Name() + " queued"
	}
	o.resources[r] = m
	return m
}

// ResourceQueued implements sim.Tracer.
func (o *Observer) ResourceQueued(r *sim.Resource, p *sim.Proc, n int) {
	m := o.resOf(r)
	if m.queued != "" {
		o.buf.counter(m.queued, o.now(), float64(r.QueueLen()))
	}
}

// ResourceAcquired implements sim.Tracer.
func (o *Observer) ResourceAcquired(r *sim.Resource, n int, waited sim.Time) {
	m := o.resOf(r)
	m.acquires.Add(1)
	m.waitNS.Observe(int64(waited))
	if m.inUse != "" {
		o.buf.counter(m.inUse, o.now(), float64(r.InUse()))
	}
	if m.queued != "" && waited > 0 {
		o.buf.counter(m.queued, o.now(), float64(r.QueueLen()))
	}
}

// ResourceReleased implements sim.Tracer.
func (o *Observer) ResourceReleased(r *sim.Resource, n int) {
	m := o.resOf(r)
	if m.inUse != "" {
		o.buf.counter(m.inUse, o.now(), float64(r.InUse()))
	}
}
