// Package attrib is the critical-path profiler of the observability
// subsystem: it decomposes the BPS metric's overlapped I/O time T into
// the exclusive contribution of each stack layer.
//
// The paper's Fig. 3 algorithm computes T as the union of all
// application access intervals; this package runs the same sweep over
// the per-layer spans recorded *inside* those intervals (device
// service, network transfer, server request handling, client cache
// hits, retry backoff) and charges every instant of T to exactly one
// layer — the innermost one active at that instant. Concurrent activity
// is counted once, exactly as Fig. 3 counts concurrent accesses once,
// so the per-layer exclusive times sum to T without rounding games:
// "blame" is a partition of the overlapped time, not a sum of
// busy-times that can exceed it.
//
// The collector also carries the streaming windowed estimator
// (core.WindowEstimator: BPS, IOPS, bandwidth, and ARPT per fixed
// window, fed live at access completion) and renders
// flame-graph-compatible folded stacks of the layer nesting over T.
package attrib

import (
	"sort"

	"bps/internal/core"
	"bps/internal/sim"
)

// Layer names, in stack order from the application downward. The order
// encodes nesting depth, not call order: when several layers are active
// at once (across any of the run's processes), the innermost — the
// highest index — is the one actually limiting progress, and the sweep
// charges the instant to it.
const (
	LayerCache  = "cache"  // client page-cache hit service
	LayerRPC    = "rpc"    // pfs client request in flight (fan-out, waiting)
	LayerRetry  = "retry"  // recovery backoff between attempts
	LayerServer = "server" // pfs server handling a request
	LayerNet    = "net"    // fabric transfer legs
	LayerDevice = "device" // device service time
	LayerClient = "client" // app interval covered by no recorded span
)

// StackOrder lists the span-producing layers outermost-first; the
// synthetic LayerClient (uncovered application time) is not in it.
var StackOrder = []string{LayerCache, LayerRPC, LayerRetry, LayerServer, LayerNet, LayerDevice}

// NumLayers is len(StackOrder); collectors index layers by position.
var NumLayers = len(StackOrder)

// LayerIndex returns a layer's position in StackOrder, or -1.
func LayerIndex(name string) int {
	for i, n := range StackOrder {
		if n == name {
			return i
		}
	}
	return -1
}

// LayerOf classifies a span's (category, name) pair — the identifiers
// the instrumented layers already use for Chrome tracing — into a
// StackOrder index, or -1 for spans that carry no attribution (the
// "app" category arrives via AddApp, not as a layer span).
func LayerOf(cat, name string) int {
	switch cat {
	case "device":
		return LayerIndex(LayerDevice)
	case "net":
		return LayerIndex(LayerNet)
	case "cache":
		return LayerIndex(LayerCache)
	case "pfs":
		switch {
		case name == "retry":
			return LayerIndex(LayerRetry)
		case len(name) >= 5 && name[len(name)-5:] == "serve":
			return LayerIndex(LayerServer)
		default:
			return LayerIndex(LayerRPC)
		}
	}
	return -1
}

// Config parameterizes a collector.
type Config struct {
	// Spans enables layer-span collection and the sweep-line blame
	// report; off, the collector only serves the windowed estimator.
	Spans bool

	// WindowEvery, when positive, sizes the streaming windowed
	// estimator's fixed windows.
	WindowEvery sim.Time
}

// Collector accumulates the raw material of one run's attribution:
// closed layer spans, application access intervals, and the streaming
// window accumulators. It follows the simulation's single-threaded
// discipline — all mutation happens in simulation context or after the
// run — and computes its Report lazily, once.
type Collector struct {
	cfg    Config
	spans  [][]core.Interval // indexed by StackOrder position
	counts []int
	apps   []core.Interval
	est    *core.WindowEstimator

	report *Report
}

// NewCollector returns an empty collector.
func NewCollector(cfg Config) *Collector {
	c := &Collector{cfg: cfg}
	if cfg.Spans {
		c.spans = make([][]core.Interval, NumLayers)
		c.counts = make([]int, NumLayers)
	}
	if cfg.WindowEvery > 0 {
		c.est = core.NewWindowEstimator(cfg.WindowEvery)
	}
	return c
}

// AddSpan records one closed layer span. layer is a StackOrder index
// (see LayerOf); out-of-range layers and empty spans are dropped.
func (c *Collector) AddSpan(layer int, start, end sim.Time) {
	if c == nil || c.spans == nil || layer < 0 || layer >= NumLayers || end <= start {
		return
	}
	c.spans[layer] = append(c.spans[layer], core.Interval{Start: start, End: end})
	c.counts[layer]++
}

// AddApp records one application access interval — the material of the
// paper's T. Zero-length accesses still count toward the window
// estimator's ops (via AddAccess) but contribute no time here.
func (c *Collector) AddApp(start, end sim.Time) {
	if c == nil || c.spans == nil || end <= start {
		return
	}
	c.apps = append(c.apps, core.Interval{Start: start, End: end})
}

// AddAccess feeds one completed application access to the streaming
// windowed estimator (no-op when windows are disabled).
func (c *Collector) AddAccess(blocks int64, start, end sim.Time) {
	if c == nil || c.est == nil {
		return
	}
	c.est.Add(blocks, start, end)
}

// LayerTime is one layer's share of the attribution report.
type LayerTime struct {
	Layer string

	// Exclusive is the layer's share of the overlapped time T: the
	// part of T during which this layer was the innermost active one.
	// Exclusive times over all layers (client included) sum to T.
	Exclusive sim.Time

	// Busy is the union of the layer's own spans — its wall-clock
	// activity regardless of deeper layers. Busy times overlap across
	// layers and may individually exceed Exclusive.
	Busy sim.Time

	// Spans is the number of spans the layer closed.
	Spans int

	// OffPath is layer activity outside the application intervals —
	// work no application access was waiting on (e.g. a server
	// finishing an RPC its client already timed out on).
	OffPath sim.Time
}

// Stack is one folded flame-graph stack: the layer nesting observed
// during Time of the overlapped interval, outermost frame first.
type Stack struct {
	Frames []string
	Time   sim.Time
}

// Report is one run's computed attribution.
type Report struct {
	// Total is T: the union of the application access intervals, the
	// denominator of BPS.
	Total sim.Time

	// Layers holds one entry per StackOrder layer plus a final
	// LayerClient entry, in that order.
	Layers []LayerTime

	// Stacks are the folded flame-graph stacks over T, sorted by path.
	Stacks []Stack

	// Windows is the streaming estimator's time series (nil when
	// windows were disabled); WindowEvery is its window width.
	Windows     []core.Window
	WindowEvery sim.Time

	// Latency holds per-histogram latency quantiles harvested from the
	// metrics registry (filled by the observer).
	Latency []LatencyRow
}

// LatencyRow is one duration histogram's summary.
type LatencyRow struct {
	Name  string
	Count uint64
	Mean  float64
	P50   int64
	P95   int64
	P99   int64
	Max   int64
}

// ExclusiveSum returns the sum of the per-layer exclusive times; by
// construction it equals Total exactly.
func (r *Report) ExclusiveSum() sim.Time {
	var sum sim.Time
	for _, l := range r.Layers {
		sum += l.Exclusive
	}
	return sum
}

// Dominant returns the layer with the largest exclusive share — the
// run's bottleneck ("" when no application time was attributed, or no
// layer spans were collected, as in a live run). Ties resolve to the
// deeper layer.
func (r *Report) Dominant() string {
	if r == nil || r.Total == 0 || len(r.Layers) == 0 {
		return ""
	}
	best := 0
	for i, l := range r.Layers {
		if l.Exclusive >= r.Layers[best].Exclusive {
			best = i
		}
	}
	return r.Layers[best].Layer
}

// AppendLiveWindows appends the estimator's window series as of now to
// dst, without memoizing a report — the live-serving path calls it
// mid-run, on sampler ticks, reusing one buffer. It appends nothing
// when windows are disabled. Windows whose end lies at or before the
// current simulated time are final except for Busy, which an in-flight
// long access can still extend retroactively.
func (c *Collector) AppendLiveWindows(dst []core.Window) []core.Window {
	if c == nil || c.est == nil {
		return dst
	}
	return c.est.AppendWindows(dst)
}

// WindowEvery returns the estimator's window width (0 when disabled).
func (c *Collector) WindowEvery() sim.Time {
	if c == nil || c.est == nil {
		return 0
	}
	return c.est.Every()
}

// Report computes (once) the attribution from everything collected.
func (c *Collector) Report() *Report {
	if c == nil {
		return nil
	}
	if c.report != nil {
		return c.report
	}
	rep := &Report{}
	if c.spans != nil {
		c.sweep(rep)
	}
	if c.est != nil {
		rep.Windows = c.est.Windows()
		rep.WindowEvery = c.est.Every()
	}
	c.report = rep
	return rep
}

// sweepEvent is one boundary of the sweep-line: a depth change of one
// layer (or of the application union, layer == -1).
type sweepEvent struct {
	t     sim.Time
	layer int
	delta int
}

// sweep runs the Fig. 3-style sweep-line over every collected span and
// application interval, partitioning the app union T among the layers.
// Only coverage matters to the sweep, so each layer's spans and the
// application intervals are first merged to their unions — which also
// gives each layer's Busy.
func (c *Collector) sweep(rep *Report) {
	rep.Layers = make([]LayerTime, NumLayers+1)
	var evs []sweepEvent
	for li, name := range StackOrder {
		c.spans[li] = core.Union(c.spans[li])
		rep.Layers[li] = LayerTime{Layer: name, Spans: c.counts[li]}
		for _, iv := range c.spans[li] {
			rep.Layers[li].Busy += iv.End - iv.Start
			evs = append(evs,
				sweepEvent{iv.Start, li, 1},
				sweepEvent{iv.End, li, -1})
		}
	}
	rep.Layers[NumLayers] = LayerTime{Layer: LayerClient}
	c.apps = core.Union(c.apps)
	for _, iv := range c.apps {
		evs = append(evs,
			sweepEvent{iv.Start, -1, 1},
			sweepEvent{iv.End, -1, -1})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })

	depth := make([]int, NumLayers)
	appDepth := 0
	stacks := make(map[string]sim.Time)

	i := 0
	for i < len(evs) {
		t := evs[i].t
		for i < len(evs) && evs[i].t == t {
			if evs[i].layer < 0 {
				appDepth += evs[i].delta
			} else {
				depth[evs[i].layer] += evs[i].delta
			}
			i++
		}
		if i == len(evs) {
			break
		}
		dt := evs[i].t - t
		if dt == 0 {
			continue
		}
		inner := -1
		for li := NumLayers - 1; li >= 0; li-- {
			if depth[li] > 0 {
				inner = li
				break
			}
		}
		if appDepth > 0 {
			rep.Total += dt
			if inner < 0 {
				rep.Layers[NumLayers].Exclusive += dt
			} else {
				rep.Layers[inner].Exclusive += dt
			}
			stacks[foldKey(depth, inner)] += dt
		} else if inner >= 0 {
			rep.Layers[inner].OffPath += dt
		}
	}

	keys := make([]string, 0, len(stacks))
	for k := range stacks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rep.Stacks = append(rep.Stacks, Stack{Frames: splitFrames(k), Time: stacks[k]})
	}
}

// foldKey renders the active layer set as a folded stack path rooted at
// "app"; a segment with no active layer folds to app;client.
func foldKey(depth []int, inner int) string {
	if inner < 0 {
		return "app;" + LayerClient
	}
	key := "app"
	for li, d := range depth {
		if d > 0 {
			key += ";" + StackOrder[li]
		}
	}
	return key
}

// splitFrames splits a folded path back into frames.
func splitFrames(key string) []string {
	var frames []string
	for len(key) > 0 {
		j := 0
		for j < len(key) && key[j] != ';' {
			j++
		}
		frames = append(frames, key[:j])
		if j == len(key) {
			break
		}
		key = key[j+1:]
	}
	return frames
}
