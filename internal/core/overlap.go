// Package core implements the BPS paper's contribution: the overlapped
// I/O-time computation (paper Fig. 3) and the four I/O metrics under
// comparison — IOPS, bandwidth, average response time, and BPS itself —
// computed from gathered trace records.
package core

import (
	"cmp"
	"slices"
	"sync"

	"bps/internal/sim"
	"bps/internal/trace"
)

// Interval is a half-open span of simulated time [Start, End).
type Interval struct {
	Start, End sim.Time
}

// Duration returns End−Start, or 0 for inverted intervals.
func (iv Interval) Duration() sim.Time {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// intervalPool recycles the scratch interval slices OverlapTime builds,
// so that sweeps computing T for run after run stop re-allocating (and
// re-growing) the same buffer. A sync.Pool keeps this safe when the
// experiment runner computes metrics on several worker goroutines.
var intervalPool = sync.Pool{
	New: func() interface{} { return new([]Interval) },
}

// OverlapTime computes T in the BPS equation: the union ("overlapped
// mode") of all access intervals. Concurrent accesses are counted once
// and idle gaps are excluded, per paper §III.A and Fig. 2. The input
// order does not matter; cost is O(n log n) for the sort plus one linear
// merge pass — the paper's Fig. 3 algorithm. The interval scratch buffer
// is pooled and grown to len(records) in one step when it is too small,
// so steady-state calls allocate nothing.
func OverlapTime(records []trace.Record) sim.Time {
	if len(records) == 0 {
		return 0
	}
	bufp := intervalPool.Get().(*[]Interval)
	ivs := slices.Grow((*bufp)[:0], len(records))
	for _, r := range records {
		ivs = append(ivs, Interval{Start: r.Start, End: r.End})
	}
	total := OverlapIntervals(ivs)
	*bufp = ivs[:0]
	intervalPool.Put(bufp)
	return total
}

// OverlapIntervals computes the union length of arbitrary intervals.
// The slice is sorted and merged in place (see Union).
func OverlapIntervals(ivs []Interval) sim.Time {
	var total sim.Time
	for _, iv := range Union(ivs) {
		total += iv.Duration()
	}
	return total
}

// Union is the merge pass of the paper's Fig. 3 algorithm: sort by
// start, then walk the intervals extending the current merged span
// while the next one begins before (or exactly when) it ends, otherwise
// starting a new span. It works in place and returns the prefix of ivs
// holding the disjoint, non-empty spans of the union in start order;
// empty and inverted intervals cover nothing and vanish. It allocates
// nothing.
func Union(ivs []Interval) []Interval {
	slices.SortFunc(ivs, func(a, b Interval) int { return cmp.Compare(a.Start, b.Start) })
	out := ivs[:0]
	for _, iv := range ivs {
		if iv.End <= iv.Start {
			continue
		}
		if n := len(out); n > 0 && iv.Start <= out[n-1].End {
			out[n-1].End = max(out[n-1].End, iv.End)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// SumTime is the naive alternative to OverlapTime: the arithmetic sum of
// every access duration, counting concurrent time multiply. It exists for
// the ablation benchmarks showing why the overlap union matters; ARPT is
// SumTime/N.
func SumTime(records []trace.Record) sim.Time {
	var total sim.Time
	for _, r := range records {
		total += r.Duration()
	}
	return total
}

// Span returns the wall span from the earliest start to the latest end,
// including idle gaps. Together with SumTime it brackets OverlapTime:
//
//	max single duration ≤ OverlapTime ≤ min(Span, SumTime)
func Span(records []trace.Record) sim.Time {
	if len(records) == 0 {
		return 0
	}
	lo, hi := records[0].Start, records[0].End
	for _, r := range records[1:] {
		if r.Start < lo {
			lo = r.Start
		}
		if r.End > hi {
			hi = r.End
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}
