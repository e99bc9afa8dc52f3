package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"bps/internal/stats"
)

// Registry holds a run's metrics, keyed by slash-separated names with
// the convention "layer/component/metric" (e.g. "device/hdd/service_ns",
// "net/ios0/tx_bytes", "pfs/ios0/requests"). Metric handles are
// get-or-create: instrumented components look their handles up once at
// construction and hold them for the run.
//
// Every method on Registry and on the metric types is nil-receiver-safe
// and returns zero values, so uninstrumented code paths can hold nil
// handles and call them unconditionally.
//
// Metric handles are registered at construction time (single-threaded)
// and thereafter only mutated through atomic operations, so the live
// driver's concurrent workers may update them; reads are likewise safe
// mid-run or after Run has returned. Registration itself
// (Counter/Gauge/Histogram/Probe) keeps the single-threaded discipline:
// call it at construction or from simulation context only.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	probes   []Probe

	// order preserves registration order per kind for deterministic
	// iteration; exported accessors sort by name instead.
	counterOrder, gaugeOrder, histOrder []string

	// gen counts registrations, so a periodic reader can keep its
	// sorted view of the sources until the set changes.
	gen uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (still usable) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	r.counterOrder = append(r.counterOrder, name)
	r.gen++
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	r.gaugeOrder = append(r.gaugeOrder, name)
	r.gen++
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	r.hists[name] = h
	r.histOrder = append(r.histOrder, name)
	r.gen++
	return h
}

// Probe registers a sampled metric: fn is evaluated at each sampler tick
// (and in snapshots), reading live simulation state such as resource
// utilization or queue depth. fn must only be called in simulation
// context or after the run.
func (r *Registry) Probe(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.probes = append(r.probes, Probe{Name: name, Fn: fn})
	r.gen++
}

// Gen returns the registry's registration count: it moves whenever a
// counter, gauge, histogram or probe is added, and only then (0 for a
// nil registry). Like registration, read it from simulation context or
// after the run.
func (r *Registry) Gen() uint64 {
	if r == nil {
		return 0
	}
	return r.gen
}

// Probe is a registered sampled metric.
type Probe struct {
	Name string
	Fn   func() float64
}

// Counters returns all counters sorted by name.
func (r *Registry) Counters() []*Counter {
	if r == nil {
		return nil
	}
	out := make([]*Counter, 0, len(r.counters))
	for _, name := range sortedKeys(r.counterOrder) {
		out = append(out, r.counters[name])
	}
	return out
}

// Gauges returns all gauges sorted by name.
func (r *Registry) Gauges() []*Gauge {
	if r == nil {
		return nil
	}
	out := make([]*Gauge, 0, len(r.gauges))
	for _, name := range sortedKeys(r.gaugeOrder) {
		out = append(out, r.gauges[name])
	}
	return out
}

// Histograms returns all histograms sorted by name.
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	out := make([]*Histogram, 0, len(r.hists))
	for _, name := range sortedKeys(r.histOrder) {
		out = append(out, r.hists[name])
	}
	return out
}

// Probes returns the registered probes sorted by name.
func (r *Registry) Probes() []Probe {
	if r == nil {
		return nil
	}
	out := append([]Probe(nil), r.probes...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func sortedKeys(order []string) []string {
	out := append([]string(nil), order...)
	sort.Strings(out)
	return out
}

// Counter is a monotonically increasing integer metric. Updates are
// atomic, so the live driver's concurrent workers may bump counters.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registered name ("" for nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. Set/Value are atomic; Add
// is a CAS loop (gauges are low-rate: probes and samplers).
type Gauge struct {
	name string
	v    atomic.Uint64 // float64 bits
}

// Name returns the gauge's registered name ("" for nil).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		if g.v.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// HistBuckets is the number of histogram buckets: one underflow bucket
// for values ≤ 0 plus one per bit length of a positive int64.
const HistBuckets = 64

// Histogram accumulates a distribution of non-negative int64 samples
// (typically durations in nanoseconds or sizes in bytes) in fixed
// log₂-scale buckets: bucket 0 holds v ≤ 0 and bucket i ≥ 1 holds
// v ∈ [2^(i−1), 2^i − 1]. Fixed boundaries keep observation O(1) with no
// allocation and make histograms from different runs directly
// comparable.
// Updates are atomic so the live driver's concurrent workers may
// observe samples; a mid-run reader may see count/sum/buckets mid-update
// relative to each other, which the post-run reporting paths never do.
type Histogram struct {
	name    string
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [HistBuckets]atomic.Uint64
}

// Name returns the histogram's registered name ("" for nil).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// bucketIndex maps a sample to its bucket: 0 for v ≤ 0, otherwise the
// bit length of v.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// BucketBounds returns the closed sample range [lo, hi] of bucket i.
// Bucket 0 is the underflow bucket (lo = math.MinInt64, hi = 0).
func BucketBounds(i int) (lo, hi int64) {
	switch {
	case i <= 0:
		return math.MinInt64, 0
	case i >= HistBuckets-1:
		return 1 << (HistBuckets - 2), math.MaxInt64
	default:
		return 1 << (i - 1), 1<<i - 1
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest sample observed (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.Count() == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(h.Count())
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1): the
// upper bound of the first bucket whose cumulative count reaches the
// nearest rank (the same nearest-rank convention stats.LatencyDist and
// the bootstrap summaries use, via stats.NearestRankIndex). Resolution
// is one power of two.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.Count() == 0 {
		return 0
	}
	max := h.max.Load()
	target := uint64(stats.NearestRankIndex(int(h.Count()), q)) + 1
	var cum uint64
	for i := 0; i < HistBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			_, hi := BucketBounds(i)
			if hi > max && i > 0 {
				return max
			}
			return hi
		}
	}
	return max
}

// Bucket is one non-empty histogram bucket.
type Bucket struct {
	Lo, Hi int64 // closed sample range
	Count  uint64
}

// Buckets returns the non-empty buckets in ascending range order.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	var out []Bucket
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}
