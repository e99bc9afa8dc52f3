package core

import (
	"fmt"
	"slices"

	"bps/internal/sim"
	"bps/internal/trace"
)

// Window is one fixed window of a run's BPS time series. Windows are
// aligned to the clock origin (start = i·width). Completed work is
// attributed to the window containing the access's end time
// (completion-time attribution, like iostat), and Busy is the
// intersection of the run's overlap union with the window, so a
// window's BPS never counts concurrent time twice and idle windows
// report zero.
type Window struct {
	Start, End sim.Time

	Ops    int64    // accesses completed in the window
	Blocks int64    // required blocks of those accesses
	SumDur sim.Time // summed durations of those accesses (ARPT numerator)
	Busy   sim.Time // I/O activity inside the window (overlap union ∩ window)
}

// BPS returns the window's blocks per second of busy time.
func (w Window) BPS() float64 { return rate(float64(w.Blocks), w.Busy) }

// IOPS returns the window's completed operations per second of busy time.
func (w Window) IOPS() float64 { return rate(float64(w.Ops), w.Busy) }

// Bandwidth returns the window's required-byte bandwidth (blocks ×
// block size over busy time) in bytes/second — required, not moved:
// per-window file-system movement is not attributable to a window.
func (w Window) Bandwidth() float64 {
	return rate(float64(w.Blocks*trace.BlockSize), w.Busy)
}

// ARPT returns the window's average response time per access in seconds.
func (w Window) ARPT() float64 {
	if w.Ops == 0 {
		return 0
	}
	return w.SumDur.Seconds() / float64(w.Ops)
}

// Utilization returns the fraction of the window with I/O in flight.
func (w Window) Utilization() float64 {
	if w.End <= w.Start {
		return 0
	}
	return float64(w.Busy) / float64(w.End-w.Start)
}

// bucket accumulates the accesses completing in one window.
type bucket struct {
	ops, blocks int64
	dur         sim.Time
}

// WindowEstimator turns accesses into a windowed BPS series. It is the
// one implementation behind both the post-hoc Timeline and the live
// consumers (attribution windows, live runs, QoS), which feed it at
// access completion. Ops, blocks and durations land in their window's
// bucket in O(1); the busy union is resolved at Windows().
//
// Every added access lands in exactly one window: the one containing
// its end, where an end exactly on a boundary belongs to the left
// window — unless that lies before the series' first window, which
// only a zero-length access on the first window's start can hit. The
// series runs from the window of the earliest start to the window of
// the last completion. Buckets cover only the windows accesses
// complete in, so memory follows the run's extent, not absolute time.
type WindowEstimator struct {
	every   sim.Time
	base    int // window index of buckets[0]
	buckets []bucket
	ivs     []Interval // non-empty access intervals; Windows compacts them to their union
	first   int        // window index of the earliest start
}

// NewWindowEstimator returns an estimator with the given window width
// (10 ms when every is not positive).
func NewWindowEstimator(every sim.Time) *WindowEstimator {
	if every <= 0 {
		every = 10 * sim.Millisecond
	}
	return &WindowEstimator{every: every}
}

// Every returns the window width.
func (e *WindowEstimator) Every() sim.Time {
	if e == nil {
		return 0
	}
	return e.every
}

// Add ingests one completed access, in any order. Accesses with a
// negative start or an end before their start are dropped.
func (e *WindowEstimator) Add(blocks int64, start, end sim.Time) {
	if e == nil || end < start || start < 0 {
		return
	}
	if w := int(start / e.every); len(e.buckets) == 0 || w < e.first {
		e.first = w
	}

	w := int(end / e.every)
	if end == sim.Time(w)*e.every && w > 0 {
		w-- // completion exactly on a boundary belongs to the left window
	}
	b := e.bucket(w)
	b.ops++
	b.blocks += blocks
	b.dur += end - start
	if end > start {
		e.ivs = append(e.ivs, Interval{start, end})
	}
}

// bucket returns window w's bucket, growing the bucket range to cover
// it. Growth at the front at least doubles the range, so a feed in any
// order stays amortized O(1) per access.
func (e *WindowEstimator) bucket(w int) *bucket {
	switch {
	case len(e.buckets) == 0:
		e.base = w
	case w < e.base:
		n := max(e.base-w, len(e.buckets))
		grown := make([]bucket, n+len(e.buckets))
		copy(grown[n:], e.buckets)
		e.buckets, e.base = grown, e.base-n
	}
	for len(e.buckets) <= w-e.base {
		e.buckets = append(e.buckets, bucket{})
	}
	return &e.buckets[w-e.base]
}

// Windows assembles the time series, empty windows included so the
// series is continuous. Busy is one Fig. 3 merge of everything added so
// far, each merged span spread over the windows it crosses; the merged
// spans replace the raw intervals, so repeated calls on a growing run
// re-merge the union rather than every access.
func (e *WindowEstimator) Windows() []Window { return e.AppendWindows(nil) }

// AppendWindows appends the series Windows returns to dst and returns
// the extended slice, so a periodic reader can reuse one buffer.
func (e *WindowEstimator) AppendWindows(dst []Window) []Window {
	if e == nil || len(e.buckets) == 0 {
		return dst
	}
	last := max(e.base+len(e.buckets)-1, e.first)
	n := len(dst)
	dst = slices.Grow(dst, last-e.first+1)[:n+last-e.first+1]
	wins := dst[n:]
	for i := range wins {
		start := sim.Time(e.first+i) * e.every
		wins[i] = Window{Start: start, End: start + e.every}
	}
	for i, b := range e.buckets {
		// Only a zero-length access on the first window's start
		// completes left of it; it books in the first window.
		w := &wins[max(e.base+i, e.first)-e.first]
		w.Ops += b.ops
		w.Blocks += b.blocks
		w.SumDur += b.dur
	}
	e.ivs = Union(e.ivs)
	for _, iv := range e.ivs {
		for t := iv.Start; t < iv.End; {
			w := &wins[int(t/e.every)-e.first]
			seg := min(iv.End, w.End)
			w.Busy += seg - t
			t = seg
		}
	}
	return dst
}

// Timeline slices a run into fixed windows and measures each one,
// turning the single-number BPS into a time series — the paper's
// "easy-to-use toolkit" direction (§V). It feeds every record to a
// WindowEstimator, so the post-hoc series equals the live one. A record
// with a negative start or an end before its start is an error.
func Timeline(g *trace.Global, window sim.Time) ([]Window, error) {
	if window <= 0 {
		return nil, fmt.Errorf("core: timeline window %v must be positive", window)
	}
	e := NewWindowEstimator(window)
	for i, r := range g.Records() {
		if r.Start < 0 || r.End < r.Start {
			return nil, fmt.Errorf("core: timeline record %d (pid %d, blocks %d, start %d, end %d): start must be non-negative and end not before start",
				i, r.PID, r.Blocks, r.Start, r.End)
		}
		e.Add(r.Blocks, r.Start, r.End)
	}
	return e.Windows(), nil
}
