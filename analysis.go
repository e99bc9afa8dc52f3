package bps

import (
	"bps/internal/roofline"
	"bps/internal/stats"
	"bps/internal/testbed"
)

// Pearson computes the correlation coefficient between two series (paper
// equation 2); NaN when undefined.
func Pearson(x, y []float64) float64 { return stats.Pearson(x, y) }

// LatencyDist summarizes per-access response times (quantiles,
// histogram) — the distribution whose mean is ARPT.
type LatencyDist = stats.LatencyDist

// NewLatencyDist builds a response-time distribution from records.
func NewLatencyDist(records []Record) LatencyDist { return stats.NewLatencyDist(records) }

// NormalizedCC applies the paper's presentation convention: +|CC| when
// the measured sign matches the metric's expected direction (Table 1),
// −|CC| otherwise.
func NormalizedCC(cc float64, kind MetricKind) float64 {
	return stats.NormalizedCC(cc, kind.ExpectedDirection())
}

// RooflineCeiling returns the analytic BPS ceiling of a storage
// configuration for the given record size and process count — the
// roofline a measured run's BPS is held against (see
// internal/roofline). Concurrency values below 1 are treated as 1.
func RooflineCeiling(s Storage, recordBytes int64, concurrency int) float64 {
	if concurrency < 1 {
		concurrency = 1
	}
	var m roofline.Model
	if s.Servers <= 0 {
		m = roofline.Local(s.Media)
	} else {
		m = roofline.FromCluster(testbed.ClusterSpec{
			Servers: s.Servers,
			Media:   s.Media,
			Clients: concurrency,
		})
	}
	return m.CeilingBPS(recordBytes, concurrency, 0)
}

// Headroom returns measured/ceiling, or 0 when the ceiling is
// degenerate (zero, negative, NaN, or infinite).
func Headroom(measuredBPS, ceilingBPS float64) float64 {
	return roofline.Headroom(measuredBPS, ceilingBPS)
}
