// Package serve is the live export surface of the observability
// subsystem: a Publisher that snapshots the metrics registry and the
// streaming window series on sampler ticks — inside the simulation,
// without consuming simulated time — and an HTTP server that exposes
// the snapshots as Prometheus-text /metrics, JSON /windows and
// /forecast, and an SSE /stream of windows and burst alerts as they
// close.
//
// The split keeps the timing-neutrality contract trivial to audit: the
// only code that runs in simulation context is the Tick hook, which
// reads observer state the simulation goroutine already owns and
// updates the publisher's one Snapshot buffer in place under a
// read-write mutex: windows and registry values are rewritten, forecast
// points and alerts only appended. HTTP handlers (their own goroutines)
// only ever read deep copies of that buffer taken under the read lock;
// nothing they do can reach back into the run. A run with serving
// attached produces bit-identical metrics, traces, and window series to
// the same run without it.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bps/internal/core"
	"bps/internal/obs"
	"bps/internal/obs/forecast"
	"bps/internal/sim"
)

// WindowJSON is one closed (or in-progress) window in wire form.
type WindowJSON struct {
	Index  int     `json:"index"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	Ops    int64   `json:"ops"`
	Blocks int64   `json:"blocks"`
	BusyS  float64 `json:"busy_s"`
	BPS    float64 `json:"bps"`
	BW     float64 `json:"bw_bytes_per_s"`
	IOPS   float64 `json:"iops"`
	ARPTS  float64 `json:"arpt_s"`
	Util   float64 `json:"utilization"`
}

func windowJSON(i int, w core.Window) WindowJSON {
	return WindowJSON{
		Index:  i,
		StartS: w.Start.Seconds(),
		EndS:   w.End.Seconds(),
		Ops:    w.Ops,
		Blocks: w.Blocks,
		BusyS:  w.Busy.Seconds(),
		BPS:    w.BPS(),
		BW:     w.Bandwidth(),
		IOPS:   w.IOPS(),
		ARPTS:  w.ARPT(),
		Util:   w.Utilization(),
	}
}

// PointJSON is one forecast point in wire form.
type PointJSON struct {
	Index    int     `json:"index"`
	Observed float64 `json:"observed"`
	Forecast float64 `json:"forecast"`
	Model    string  `json:"model"`
	Baseline float64 `json:"baseline"`
}

// SeriesJSON is one forecast series in wire form.
type SeriesJSON struct {
	Name   string      `json:"name"`
	Model  string      `json:"model"`  // currently selected model
	MAE    float64     `json:"mae"`    // its rolling mean absolute error
	Points []PointJSON `json:"points"` // one per closed window, in order
}

// AlertJSON is one burst alert in wire form.
type AlertJSON struct {
	Series string  `json:"series"`
	Window int     `json:"window"`
	Kind   string  `json:"kind"` // "observed" or "forecast"
	Value  float64 `json:"value"`
	Limit  float64 `json:"limit"`
}

func alertJSON(a forecast.Alert) AlertJSON {
	return AlertJSON{Series: a.Series, Window: a.Window, Kind: a.Kind.String(), Value: a.Value, Limit: a.Limit}
}

// RooflineJSON is the run's roofline position in wire form: the
// analytic ceiling the caller installed with SetRoofline, and the
// measured BPS so far. Blocks and busy time are exact int64/duration
// sums over the window series, so the measured BPS here equals the
// post-hoc metric (B/T) once the run completes — the live endpoint and
// the printed report can never disagree.
type RooflineJSON struct {
	CeilingBPS  float64 `json:"ceiling_bps"`
	MeasuredBPS float64 `json:"measured_bps"`
	Headroom    float64 `json:"headroom"` // MeasuredBPS / CeilingBPS
	Blocks      int64   `json:"blocks"`
	BusyS       float64 `json:"busy_s"`
}

// MetricJSON is one scalar registry metric in wire form.
type MetricJSON struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // "counter" or "gauge"
	Value float64 `json:"value"`
}

// HistJSON is one duration histogram summary in wire form.
type HistJSON struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// Snapshot is one published view of the run. The publisher's own
// buffer changes at every tick; the copies Publisher.Snapshot returns
// never do.
type Snapshot struct {
	Label   string       `json:"label"`
	NowS    float64      `json:"now_s"`
	WindowS float64      `json:"window_s"`
	Closed  int          `json:"closed"` // windows fed to the forecaster so far
	Windows []WindowJSON `json:"windows"`
	Series  []SeriesJSON `json:"series"`
	Alerts  []AlertJSON  `json:"alerts"`
	Metrics []MetricJSON `json:"metrics"`
	Hists   []HistJSON   `json:"histograms"`

	// Roofline is present only when the caller installed a ceiling via
	// SetRoofline; runs without a model publish the historical shape.
	Roofline *RooflineJSON `json:"roofline,omitempty"`
}

// event is one SSE broadcast.
type event struct {
	kind string // "window" or "alert"
	data []byte
}

// Source is what a publisher snapshots: the streaming window series,
// the window cadence, and the metrics registry. *obs.Observer satisfies
// it for simulated runs; the live driver (internal/live) satisfies it
// directly so wall-clock runs publish through the identical pipeline.
type Source interface {
	AppendLiveWindows(dst []core.Window) []core.Window
	WindowEvery() sim.Time
	Registry() *obs.Registry
}

// Publisher feeds the forecaster from closing windows and publishes
// snapshots for the HTTP layer. Create one per run, install its Hook as
// obs.Options.Tick (simulated runs) or call Publish from a ticker
// goroutine (live runs), and serve its Handler.
type Publisher struct {
	label   string
	fcfg    forecast.Config
	tracker *forecast.Tracker

	fed     int    // windows already fed to the tracker
	lastRun Source // source of the run currently ticking

	// wins is this tick's window series and prev the last tick's; the
	// two buffers swap at every tick, and a window equal to its
	// predecessor keeps its rendered JSON.
	wins, prev []core.Window

	ceilingBPS float64 // roofline ceiling; 0 disables the roofline view

	// restart marks the snapshot buffer as built from a forecaster that
	// Reset replaced: the next tick empties its points and alerts
	// before appending the new run's.
	restart bool

	// reg and gen identify the registry state the metric handles were
	// listed from, sorted by name; a tick re-lists them only when a
	// registration moved the generation.
	reg      *obs.Registry
	gen      uint64
	counters []*obs.Counter
	gauges   []*obs.Gauge
	hists    []*obs.Histogram

	// snap is the one snapshot buffer, and roof backs its Roofline.
	// Ticks update both in place under the write lock; readers take
	// deep copies under the read lock.
	mu        sync.RWMutex
	snap      Snapshot
	roof      RooflineJSON
	published bool // a tick has filled snap

	smu     sync.Mutex
	subs    map[*subscriber]bool
	dropped atomic.Int64 // events discarded on full subscriber buffers
}

// subscriber is one SSE consumer. missed counts consecutive events its
// buffer had no room for; past DropLimit the broadcaster evicts it
// (closes ch) rather than let an abandoned or glacial consumer force
// unbounded skew between the stream and the run.
type subscriber struct {
	ch     chan event
	missed int
}

// DropLimit is the number of consecutive missed events after which a
// slow SSE subscriber is evicted. A healthy consumer that briefly
// stalls resumes losslessly as long as its 256-event buffer holds; one
// that stays stalled is disconnected and can re-sync from /windows.
const DropLimit = 1024

// NewPublisher returns a publisher for one labeled run. The forecast
// config's zero value selects the documented defaults.
func NewPublisher(label string, fcfg forecast.Config) *Publisher {
	return &Publisher{
		label:   label,
		fcfg:    fcfg,
		tracker: forecast.NewTracker(fcfg),
		subs:    make(map[*subscriber]bool),
	}
}

// Reset prepares the publisher for a fresh run: new forecaster, window
// feed restarted from index zero, and the snapshot buffer's forecast
// points and alerts restarted at the next tick. Until that tick readers
// keep seeing the last published snapshot, and SSE subscribers are
// kept, so a looping daemon serves continuously across runs. Call it
// between runs only — never while a simulation that ticks this
// publisher is in flight.
func (p *Publisher) Reset() {
	p.fed = 0
	p.tracker = forecast.NewTracker(p.fcfg)
	p.restart = true
}

// Tracker returns the publisher's forecast tracker (final state is
// valid after the run for post-hoc reporting).
func (p *Publisher) Tracker() *forecast.Tracker { return p.tracker }

// SetRoofline installs the analytic BPS ceiling (blocks/s) the run is
// measured against; snapshots then carry a Roofline view and /metrics
// exports bps_roofline_* gauges. Zero or negative disables it. Call it
// before the run starts ticking — like Reset, never mid-run.
func (p *Publisher) SetRoofline(ceilingBPS float64) { p.ceilingBPS = ceilingBPS }

// Hook returns the function to install as obs.Options.Tick. It runs in
// simulation context on every sampler pass: feeds windows that have
// closed by now to the forecaster, updates the snapshot, and
// broadcasts SSE events — all without touching simulated time.
func (p *Publisher) Hook() func(now sim.Time, o *obs.Observer) {
	return func(now sim.Time, o *obs.Observer) { p.tick(now, o) }
}

// Publish is the live-run counterpart of the sampler Hook: feed closed
// windows, update the snapshot, broadcast. Callers must serialize
// their calls (the live driver publishes from a single ticker
// goroutine), and src must be safe to read concurrently with the run's
// workers — the Hook path gets both for free from simulation context.
func (p *Publisher) Publish(now sim.Time, src Source) { p.tick(now, src) }

func (p *Publisher) tick(now sim.Time, src Source) {
	// One publisher can serve a sequence of runs (a looping daemon, a
	// suite sweep): each run attaches its own observer, so a new
	// source identity marks a run boundary and restarts the window
	// feed. Runs must tick sequentially, never interleaved.
	if src != p.lastRun {
		if p.lastRun != nil {
			p.Reset()
		}
		p.lastRun = src
	}
	p.prev, p.wins = p.wins, src.AppendLiveWindows(p.prev[:0])
	wins := p.wins
	var events []event

	// Feed windows whose end has passed: their ops/blocks/durations are
	// final (completions arrive in end-time order and the sampler tick
	// runs after all foreground events at this timestamp); only Busy can
	// still grow if a long access is in flight across the boundary.
	for p.fed < len(wins) && wins[p.fed].End <= now {
		w := wins[p.fed]
		alerts := p.tracker.ObserveWindow(w)
		if data, err := json.Marshal(windowJSON(p.fed, w)); err == nil {
			events = append(events, event{kind: "window", data: data})
		}
		for _, a := range alerts {
			if data, err := json.Marshal(alertJSON(a)); err == nil {
				events = append(events, event{kind: "alert", data: data})
			}
		}
		p.fed++
	}

	p.mu.Lock()
	p.update(now, src)
	p.mu.Unlock()
	p.broadcast(events)
}

// update brings the snapshot buffer up to now. It runs in simulation
// context (or the live driver's single ticker goroutine) under the
// write lock, so registry reads need no extra synchronization beyond
// the counters' own atomics. A window's JSON depends only on its index
// and fields, so only windows that differ from the last tick's are
// re-rendered (Busy of an open one can still grow); registry values
// are re-rendered into the reused slices, and forecast points and
// alerts only ever append, so only the new ones are built.
func (p *Publisher) update(now sim.Time, src Source) {
	s := &p.snap
	s.Label = p.label
	s.NowS = now.Seconds()
	s.WindowS = src.WindowEvery().Seconds()
	s.Closed = p.fed

	var blocks int64
	var busy sim.Time
	if n := len(p.wins) - len(s.Windows); n > 0 {
		s.Windows = append(s.Windows, make([]WindowJSON, n)...)
	}
	s.Windows = s.Windows[:len(p.wins)]
	for i, w := range p.wins {
		if i >= len(p.prev) || p.prev[i] != w {
			s.Windows[i] = windowJSON(i, w)
		}
		blocks += w.Blocks
		busy += w.Busy
	}
	s.Roofline = nil
	if p.ceilingBPS > 0 {
		// Sum in int64/sim.Time, divide once: the windows partition the
		// run's completions, so measured BPS here is exactly the core
		// metric B/T the post-hoc report prints.
		p.roof = RooflineJSON{CeilingBPS: p.ceilingBPS, Blocks: blocks, BusyS: busy.Seconds()}
		if busy > 0 {
			p.roof.MeasuredBPS = float64(blocks) / busy.Seconds()
			p.roof.Headroom = p.roof.MeasuredBPS / p.roof.CeilingBPS
		}
		s.Roofline = &p.roof
	}

	if p.restart {
		for i := range s.Series {
			s.Series[i].Points = s.Series[i].Points[:0]
		}
		s.Alerts = s.Alerts[:0]
		p.restart = false
	}
	series := p.tracker.Series()
	if len(s.Series) != len(series) {
		s.Series = make([]SeriesJSON, len(series))
	}
	for i, fs := range series {
		sj := &s.Series[i]
		sj.Name, sj.Model, sj.MAE = fs.Name(), fs.Last().Model.String(), fs.MAE()
		for _, pt := range fs.Points()[len(sj.Points):] {
			sj.Points = append(sj.Points, PointJSON{
				Index: pt.Index, Observed: pt.Observed, Forecast: pt.Forecast,
				Model: pt.Model.String(), Baseline: pt.Baseline,
			})
		}
	}
	for _, a := range p.tracker.Alerts()[len(s.Alerts):] {
		s.Alerts = append(s.Alerts, alertJSON(a))
	}

	if reg := src.Registry(); reg != p.reg || reg.Gen() != p.gen {
		p.reg, p.gen = reg, reg.Gen()
		p.counters, p.gauges, p.hists = reg.Counters(), reg.Gauges(), reg.Histograms()
	}
	s.Metrics = s.Metrics[:0]
	for _, c := range p.counters {
		s.Metrics = append(s.Metrics, MetricJSON{Name: c.Name(), Kind: "counter", Value: float64(c.Value())})
	}
	for _, g := range p.gauges {
		s.Metrics = append(s.Metrics, MetricJSON{Name: g.Name(), Kind: "gauge", Value: g.Value()})
	}
	s.Hists = s.Hists[:0]
	for _, h := range p.hists {
		s.Hists = append(s.Hists, HistJSON{
			Name: h.Name(), Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99), Max: h.Max(),
		})
	}
	p.published = true
}

// Snapshot returns a deep copy of the most recently published snapshot
// (nil before the first tick). The copy is the caller's: later ticks
// never change it.
func (p *Publisher) Snapshot() *Snapshot {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if !p.published {
		return nil
	}
	c := p.snap
	c.Windows = clone(c.Windows)
	c.Series = clone(c.Series)
	for i := range c.Series {
		c.Series[i].Points = clone(c.Series[i].Points)
	}
	c.Alerts = clone(c.Alerts)
	c.Metrics = clone(c.Metrics)
	c.Hists = clone(c.Hists)
	if c.Roofline != nil {
		r := *c.Roofline
		c.Roofline = &r
	}
	return &c
}

// clone copies s, returning nil for an empty s: every list of a
// snapshot is built by appending, so an empty list publishes as JSON
// null.
func clone[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append([]T(nil), s...)
}

// subscribe registers an SSE consumer.
func (p *Publisher) subscribe() *subscriber {
	s := &subscriber{ch: make(chan event, 256)}
	p.smu.Lock()
	p.subs[s] = true
	p.smu.Unlock()
	return s
}

func (p *Publisher) unsubscribe(s *subscriber) {
	p.smu.Lock()
	delete(p.subs, s)
	p.smu.Unlock()
}

// Dropped returns the total SSE events discarded because a subscriber's
// buffer was full — the backpressure signal surfaced on /metrics as
// bps_stream_dropped_total and on /healthz.
func (p *Publisher) Dropped() int64 { return p.dropped.Load() }

// Subscribers returns the current SSE subscriber count.
func (p *Publisher) Subscribers() int {
	p.smu.Lock()
	defer p.smu.Unlock()
	return len(p.subs)
}

// broadcast fans events out to subscribers, never blocking the
// simulation: a subscriber whose buffer is full misses events (counted
// in dropped; it can re-sync from /windows), and one that misses
// DropLimit events in a row is evicted — its channel is closed, which
// ends its handler.
func (p *Publisher) broadcast(events []event) {
	if len(events) == 0 {
		return
	}
	p.smu.Lock()
	defer p.smu.Unlock()
	for s := range p.subs {
		for _, ev := range events {
			select {
			case s.ch <- ev:
				s.missed = 0
			default:
				s.missed++
				p.dropped.Add(1)
				if s.missed >= DropLimit {
					delete(p.subs, s)
					close(s.ch)
				}
			}
			if !p.subs[s] {
				break
			}
		}
	}
}

// --- HTTP layer ------------------------------------------------------

// Handler returns the endpoint mux: /metrics (Prometheus text),
// /windows and /forecast (JSON), /stream (SSE).
func (p *Publisher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", p.handleMetrics)
	mux.HandleFunc("/windows", p.handleWindows)
	mux.HandleFunc("/forecast", p.handleForecast)
	mux.HandleFunc("/roofline", p.handleRoofline)
	mux.HandleFunc("/stream", p.handleStream)
	mux.HandleFunc("/healthz", p.handleHealthz)
	mux.HandleFunc("/", p.handleIndex)
	return mux
}

// Health is the /healthz payload: liveness plus the backpressure
// signals an operator needs to judge whether streaming consumers are
// keeping up.
type Health struct {
	Status        string  `json:"status"`
	Label         string  `json:"label"`
	NowS          float64 `json:"now_s"`
	Closed        int     `json:"closed"`
	Subscribers   int     `json:"subscribers"`
	StreamDropped int64   `json:"stream_dropped"`
}

// Healthz returns the current health view (also served on /healthz).
func (p *Publisher) Healthz() Health {
	h := Health{Status: "ok", Label: p.label, Subscribers: p.Subscribers(), StreamDropped: p.Dropped()}
	p.mu.RLock()
	if p.published {
		h.NowS, h.Closed = p.snap.NowS, p.snap.Closed
	}
	p.mu.RUnlock()
	return h
}

func (p *Publisher) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(p.Healthz())
}

func (p *Publisher) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "bps live observability (%s)\nendpoints: /metrics /windows /forecast /roofline /stream\n", p.label)
}

// promName sanitizes a registry metric name into a legal Prometheus
// metric name under the bps_ namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("bps_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func (p *Publisher) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s := p.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s != nil {
		writeProm(w, s)
	} else {
		fmt.Fprintf(w, "# no snapshot published yet\n")
	}
	// Stream backpressure counters live HTTP-side, not in the snapshot:
	// they move when consumers stall, even between sampler ticks.
	fmt.Fprintf(w, "# TYPE bps_stream_dropped_total counter\nbps_stream_dropped_total %d\n", p.Dropped())
	fmt.Fprintf(w, "# TYPE bps_stream_subscribers gauge\nbps_stream_subscribers %d\n", p.Subscribers())
}

// writeProm renders a snapshot in the Prometheus text exposition
// format: registry scalars, histogram summaries, and the latest closed
// window's rates plus the current forecasts.
func writeProm(w io.Writer, s *Snapshot) {
	fmt.Fprintf(w, "# HELP bps_sim_now_seconds Simulated time of this snapshot.\n")
	fmt.Fprintf(w, "# TYPE bps_sim_now_seconds gauge\nbps_sim_now_seconds %g\n", s.NowS)
	for _, m := range s.Metrics {
		n := promName(m.Name)
		fmt.Fprintf(w, "# TYPE %s %s\n%s %g\n", n, m.Kind, n, m.Value)
	}
	for _, h := range s.Hists {
		n := promName(h.Name)
		fmt.Fprintf(w, "# TYPE %s summary\n", n)
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %d\n", n, h.P50)
		fmt.Fprintf(w, "%s{quantile=\"0.95\"} %d\n", n, h.P95)
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %d\n", n, h.P99)
		fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", n, h.Sum, n, h.Count)
	}
	if s.Closed > 0 && s.Closed <= len(s.Windows) {
		last := s.Windows[s.Closed-1]
		fmt.Fprintf(w, "# HELP bps_window_bps Latest closed window's BPS (blocks/s of busy time).\n")
		fmt.Fprintf(w, "# TYPE bps_window_bps gauge\nbps_window_bps %g\n", last.BPS)
		fmt.Fprintf(w, "# TYPE bps_window_bandwidth_bytes_per_second gauge\nbps_window_bandwidth_bytes_per_second %g\n", last.BW)
		fmt.Fprintf(w, "# TYPE bps_window_iops gauge\nbps_window_iops %g\n", last.IOPS)
		fmt.Fprintf(w, "# TYPE bps_window_utilization gauge\nbps_window_utilization %g\n", last.Util)
		fmt.Fprintf(w, "# TYPE bps_window_index gauge\nbps_window_index %d\n", last.Index)
	}
	for _, fs := range s.Series {
		if len(fs.Points) == 0 {
			continue
		}
		last := fs.Points[len(fs.Points)-1]
		fmt.Fprintf(w, "# TYPE bps_forecast_next gauge\nbps_forecast_next{series=%q,model=%q} %g\n",
			fs.Name, last.Model, last.Forecast)
	}
	if r := s.Roofline; r != nil {
		fmt.Fprintf(w, "# HELP bps_roofline_ceiling_bps Analytic BPS ceiling for this run.\n")
		fmt.Fprintf(w, "# TYPE bps_roofline_ceiling_bps gauge\nbps_roofline_ceiling_bps %g\n", r.CeilingBPS)
		fmt.Fprintf(w, "# HELP bps_roofline_headroom Measured BPS as a fraction of the ceiling.\n")
		fmt.Fprintf(w, "# TYPE bps_roofline_headroom gauge\nbps_roofline_headroom %g\n", r.Headroom)
		fmt.Fprintf(w, "# TYPE bps_roofline_measured_bps gauge\nbps_roofline_measured_bps %g\n", r.MeasuredBPS)
	}
	fmt.Fprintf(w, "# TYPE bps_alerts_total counter\nbps_alerts_total %d\n", len(s.Alerts))
}

func (p *Publisher) handleWindows(w http.ResponseWriter, r *http.Request) {
	s := p.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if s == nil {
		io.WriteString(w, "{}\n")
		return
	}
	json.NewEncoder(w).Encode(struct {
		Label   string       `json:"label"`
		NowS    float64      `json:"now_s"`
		WindowS float64      `json:"window_s"`
		Closed  int          `json:"closed"`
		Windows []WindowJSON `json:"windows"`
	}{s.Label, s.NowS, s.WindowS, s.Closed, s.Windows})
}

func (p *Publisher) handleForecast(w http.ResponseWriter, r *http.Request) {
	s := p.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if s == nil {
		io.WriteString(w, "{}\n")
		return
	}
	json.NewEncoder(w).Encode(struct {
		Label  string       `json:"label"`
		NowS   float64      `json:"now_s"`
		Series []SeriesJSON `json:"series"`
		Alerts []AlertJSON  `json:"alerts"`
	}{s.Label, s.NowS, s.Series, s.Alerts})
}

// handleRoofline serves the run's roofline position. Without an
// installed ceiling (or before the first tick) it serves {} so probes
// can distinguish "no model" from an error.
func (p *Publisher) handleRoofline(w http.ResponseWriter, r *http.Request) {
	s := p.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if s == nil || s.Roofline == nil {
		io.WriteString(w, "{}\n")
		return
	}
	json.NewEncoder(w).Encode(struct {
		Label string  `json:"label"`
		NowS  float64 `json:"now_s"`
		*RooflineJSON
	}{s.Label, s.NowS, s.Roofline})
}

// handleStream serves SSE: a "snapshot" event with the current state,
// then "window" and "alert" events as the run progresses.
func (p *Publisher) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	// The server's WriteTimeout protects request/response endpoints; an
	// SSE stream is legitimately open for the whole run, so exempt this
	// response from the deadline. Slow-consumer protection comes from
	// the broadcaster's DropLimit eviction instead.
	http.NewResponseController(w).SetWriteDeadline(time.Time{})

	sub := p.subscribe()
	defer p.unsubscribe(sub)

	if s := p.Snapshot(); s != nil {
		if data, err := json.Marshal(s); err == nil {
			fmt.Fprintf(w, "event: snapshot\ndata: %s\n\n", data)
			fl.Flush()
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.ch:
			if !ok {
				// Evicted by the broadcaster for falling DropLimit
				// events behind; tell the client why before hanging up.
				fmt.Fprintf(w, "event: evicted\ndata: {\"reason\":\"slow consumer\"}\n\n")
				fl.Flush()
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.kind, ev.data)
			fl.Flush()
		}
	}
}

// Timeouts bounds every phase of an HTTP connection's life so a stalled
// or malicious peer (slow-loris: a client that trickles header bytes
// forever) cannot pin a connection goroutine indefinitely.
type Timeouts struct {
	ReadHeader time.Duration // request line + headers must arrive within this
	Read       time.Duration // whole request (incl. body) must arrive within this
	Write      time.Duration // response must be written within this (SSE exempts itself)
	Idle       time.Duration // keep-alive connections idle longer than this are closed
}

// DefaultTimeouts is the hardened default for every bps HTTP server:
// tight on headers (nothing legitimate takes 5 s to say GET), generous
// on response writes, and bounded keep-alive.
func DefaultTimeouts() Timeouts {
	return Timeouts{
		ReadHeader: 5 * time.Second,
		Read:       30 * time.Second,
		Write:      60 * time.Second,
		Idle:       120 * time.Second,
	}
}

// Server is a running HTTP endpoint over one publisher.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (":0" picks a free port) and serves the
// publisher's handler with DefaultTimeouts until Close or Shutdown.
func Start(addr string, p *Publisher) (*Server, error) {
	return StartHandler(addr, p.Handler())
}

// StartHandler is Start for an arbitrary handler (a daemon that mounts
// extra endpoints next to the publisher's), with DefaultTimeouts.
func StartHandler(addr string, h http.Handler) (*Server, error) {
	return StartWith(addr, h, DefaultTimeouts())
}

// StartWith is StartHandler with explicit timeouts. A zero field leaves
// that phase unbounded — only tests should want that.
func StartWith(addr string, h http.Handler, t Timeouts) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: t.ReadHeader,
		ReadTimeout:       t.Read,
		WriteTimeout:      t.Write,
		IdleTimeout:       t.Idle,
	}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately, dropping open connections.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown drains gracefully: stops accepting, waits for in-flight
// requests (bounded by ctx), then closes. SSE streams never finish on
// their own, so drain callers should cancel them (Close after the
// deadline) — Shutdown returns ctx.Err() in that case.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }
