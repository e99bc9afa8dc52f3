// Package stats provides the statistics the BPS paper's evaluation uses:
// the Pearson correlation coefficient (paper equation 2) between a metric
// series and the application-execution-time series, and the paper's
// normalization that flips the sign when the measured correlation
// direction contradicts the expected one (Table 1).
package stats

import (
	"math"
	"sort"

	"bps/internal/core"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Pearson computes the correlation coefficient between x and y (paper
// equation 2). It returns NaN when either series is constant or the
// series lengths differ or are shorter than 2 — situations where the
// correlation is undefined.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / (math.Sqrt(sxx) * math.Sqrt(syy))
}

// NormalizedCC applies the paper's presentation convention (§IV.B): given
// the raw CC between a metric and execution time and the metric's
// expected correlation direction, return +|CC| when the measured sign
// matches the expectation and −|CC| when it contradicts it. NaN passes
// through.
func NormalizedCC(cc float64, expected core.Direction) float64 {
	if math.IsNaN(cc) {
		return cc
	}
	matches := (cc < 0 && expected == core.Negative) || (cc > 0 && expected == core.Positive)
	abs := math.Abs(cc)
	if matches {
		return abs
	}
	return -abs
}

// MetricCC computes the normalized CC for one metric kind across a sweep
// of runs: values are the metric measurements, execTimes the matching
// application execution times in seconds.
func MetricCC(kind core.MetricKind, values, execTimes []float64) float64 {
	return NormalizedCC(Pearson(values, execTimes), kind.ExpectedDirection())
}

// CCTable holds the normalized CC of every metric for one experiment —
// one bar group in the paper's Figs. 4–6, 9, 11–12.
type CCTable struct {
	Label string
	CC    map[core.MetricKind]float64
}

// NewCCTable computes the full table from per-run metrics and execution
// times (seconds).
func NewCCTable(label string, runs []core.Metrics) CCTable {
	exec := make([]float64, len(runs))
	for i, m := range runs {
		exec[i] = m.ExecTime.Seconds()
	}
	tbl := CCTable{Label: label, CC: make(map[core.MetricKind]float64)}
	for _, k := range core.Kinds {
		vals := make([]float64, len(runs))
		for i, m := range runs {
			vals[i] = m.Value(k)
		}
		tbl.CC[k] = MetricCC(k, vals, exec)
	}
	return tbl
}

// Spearman computes the rank correlation coefficient: Pearson on the
// ranks of x and y. Rate metrics relate to execution time hyperbolically
// (metric ∝ 1/T), which depresses Pearson over wide sweeps even when the
// ordering is perfect; Spearman measures the monotone relationship the
// paper's correlation-direction argument actually relies on. Ties get
// fractional (average) ranks.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	return Pearson(ranks(x), ranks(y))
}

// ranks returns average ranks (1-based) of the values.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}
