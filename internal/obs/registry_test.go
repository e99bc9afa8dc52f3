package obs

import (
	"math"
	"testing"
)

func TestBucketBoundaries(t *testing.T) {
	// Bucket 0 is the underflow bucket.
	if lo, hi := BucketBounds(0); lo != math.MinInt64 || hi != 0 {
		t.Fatalf("bucket 0 bounds = [%d, %d]", lo, hi)
	}
	// Bucket i (1 ≤ i < 63) holds [2^(i−1), 2^i − 1].
	for i := 1; i < HistBuckets-1; i++ {
		lo, hi := BucketBounds(i)
		if lo != 1<<(i-1) || hi != 1<<i-1 {
			t.Fatalf("bucket %d bounds = [%d, %d], want [%d, %d]",
				i, lo, hi, 1<<(i-1), 1<<i-1)
		}
	}
	// The top bucket absorbs everything up to MaxInt64.
	if lo, hi := BucketBounds(HistBuckets - 1); lo != 1<<62 || hi != math.MaxInt64 {
		t.Fatalf("top bucket bounds = [%d, %d]", lo, hi)
	}

	// Samples land exactly on their bucket's closed range.
	h := &Histogram{}
	for i := 1; i < HistBuckets-1; i++ {
		lo, hi := BucketBounds(i)
		h.Observe(lo)
		h.Observe(hi)
	}
	h.Observe(0)
	h.Observe(-5)
	h.Observe(math.MaxInt64)
	// Two samples per bucket: its bounds, or 0 and -5 for the underflow
	// bucket; one in the last bucket.
	for i := 0; i < HistBuckets; i++ {
		want := uint64(2)
		if i == HistBuckets-1 {
			want = 1
		}
		if got := h.buckets[i].Load(); got != want {
			lo, hi := BucketBounds(i)
			t.Fatalf("bucket %d [%d, %d] holds %d samples, want %d", i, lo, hi, got, want)
		}
	}
}

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-1, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 20, 21}, {1<<21 - 1, 21}, {math.MaxInt64, HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Fatalf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramStats(t *testing.T) {
	h := &Histogram{}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 || h.Sum() != 500500 || h.Max() != 1000 {
		t.Fatalf("count/sum/max = %d/%d/%d", h.Count(), h.Sum(), h.Max())
	}
	if got := h.Mean(); got != 500.5 {
		t.Fatalf("mean = %v", got)
	}
	// Quantiles are bucket upper bounds: p50 of 1..1000 falls in
	// [512, 1023] whose upper bound is clipped to the observed max.
	if q := h.Quantile(0.5); q < 500 || q > 1000 {
		t.Fatalf("p50 = %d", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("p100 = %d, want max", q)
	}
	if q := h.Quantile(0); q <= 0 {
		t.Fatalf("p0 = %d", q)
	}
}

// TestHistogramQuantileEdges pins Quantile's behavior in the corner
// cases the attribution latency rows rely on: empty histograms, all
// samples in a single bucket, and a saturated top bucket.
func TestHistogramQuantileEdges(t *testing.T) {
	// Empty: every quantile is 0.
	empty := &Histogram{}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}

	// Single bucket: samples 100..120 all land in [64, 127], so every
	// quantile reports that bucket, clipped to the observed max.
	single := &Histogram{}
	for v := int64(100); v <= 120; v++ {
		single.Observe(v)
	}
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		got := single.Quantile(q)
		if got < 100 || got > 127 {
			t.Fatalf("single-bucket Quantile(%v) = %d, want within [100,127]", q, got)
		}
	}
	if got := single.Quantile(1); got != 120 {
		t.Fatalf("single-bucket p100 = %d, want observed max 120", got)
	}

	// Saturated top bucket: huge samples hit bucket HistBuckets-1 whose
	// upper bound is MaxInt64; the result must clip to the observed max
	// instead of reporting an absurd bound.
	sat := &Histogram{}
	sat.Observe(math.MaxInt64)
	sat.Observe(1 << 62)
	for _, q := range []float64{0.5, 1} {
		if got := sat.Quantile(q); got != math.MaxInt64 {
			t.Fatalf("saturated Quantile(%v) = %d, want max %d", q, got, int64(math.MaxInt64))
		}
	}
	sat2 := &Histogram{}
	sat2.Observe(1<<62 + 5)
	if got := sat2.Quantile(0.5); got != 1<<62+5 {
		t.Fatalf("saturated Quantile(0.5) = %d, want observed max %d", got, int64(1<<62+5))
	}

	// Out-of-range q clips rather than panicking.
	if single.Quantile(-1) != single.Quantile(0) || single.Quantile(2) != single.Quantile(1) {
		t.Fatal("out-of-range q not clipped")
	}
}

func TestRegistryNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(3)
	c.Inc()
	if c.Value() != 0 || c.Name() != "" {
		t.Fatal("nil counter accumulated")
	}
	h := r.Histogram("x")
	h.Observe(7)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram accumulated")
	}
	r.Probe("x", func() float64 { return 1 })
	if r.Counters() != nil || r.Histograms() != nil || r.Probes() != nil {
		t.Fatal("nil registry returned sources")
	}
	if r.StartSampler(nil, 0) != nil {
		t.Fatal("nil registry started a sampler")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("layer/comp/metric")
	b := r.Counter("layer/comp/metric")
	if a != b {
		t.Fatal("same name gave distinct counters")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatal("handles not shared")
	}
	r.Counter("z")
	r.Counter("a")
	cs := r.Counters()
	if len(cs) != 3 || cs[0].Name() != "a" || cs[2].Name() != "z" {
		t.Fatalf("counters not sorted: %v", []string{cs[0].Name(), cs[1].Name(), cs[2].Name()})
	}
}
