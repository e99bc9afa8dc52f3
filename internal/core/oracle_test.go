package core

import (
	"math/rand"
	"sort"
	"testing"

	"bps/internal/sim"
	"bps/internal/trace"
)

// bruteOverlap is the exact-value oracle for T: it counts the unit cells
// [k, k+1) covered by at least one half-open interval. It shares no code
// or idea with the sort-and-merge pass, so agreement is evidence that
// the merge computes the union length rather than a plausible bound.
// Inverted and zero-length intervals cover no cell. Intended only for
// small integer endpoints.
func bruteOverlap(ivs []Interval) sim.Time {
	if len(ivs) == 0 {
		return 0
	}
	lo, hi := ivs[0].Start, ivs[0].End
	for _, iv := range ivs {
		lo = min(lo, iv.Start, iv.End)
		hi = max(hi, iv.Start, iv.End)
	}
	var n sim.Time
	for k := lo; k < hi; k++ {
		for _, iv := range ivs {
			if iv.Start <= k && k+1 <= iv.End {
				n++
				break
			}
		}
	}
	return n
}

// streamOverlap feeds the intervals, sorted by start, through a
// MergeAccumulator — the streaming form of T.
func streamOverlap(ivs []Interval) sim.Time {
	sorted := append([]Interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var m MergeAccumulator
	for _, iv := range sorted {
		m.Add(iv.Start, iv.End)
	}
	return m.Total()
}

// checkOracle compares every implementation of T against bruteOverlap.
func checkOracle(t *testing.T, ivs []Interval) {
	t.Helper()
	want := bruteOverlap(ivs)
	records := make([]trace.Record, len(ivs))
	for i, iv := range ivs {
		records[i] = rec(iv.Start, iv.End)
	}
	if got := OverlapTime(records); got != want {
		t.Fatalf("OverlapTime(%v) = %v, oracle %v", ivs, got, want)
	}
	if got := OverlapIntervals(append([]Interval(nil), ivs...)); got != want {
		t.Fatalf("OverlapIntervals(%v) = %v, oracle %v", ivs, got, want)
	}
	if got := streamOverlap(ivs); got != want {
		t.Fatalf("MergeAccumulator(%v) = %v, oracle %v", ivs, got, want)
	}
}

func TestBruteOverlapHandComputed(t *testing.T) {
	cases := []struct {
		ivs  []Interval
		want sim.Time
	}{
		{nil, 0},
		{[]Interval{{3, 3}}, 0},
		{[]Interval{{5, 2}}, 0},
		{[]Interval{{0, 4}, {4, 6}}, 6},
		{[]Interval{{0, 4}, {5, 6}}, 5},
		{[]Interval{{10, 40}, {20, 55}, {35, 60}, {80, 95}}, 65},
		{[]Interval{{-3, 2}, {1, 1}, {7, 0}}, 5},
	}
	for _, c := range cases {
		if got := bruteOverlap(c.ivs); got != c.want {
			t.Errorf("bruteOverlap(%v) = %v, want %v", c.ivs, got, c.want)
		}
	}
}

// TestOverlapMatchesBruteForce cross-checks batch and streaming T
// against the cell-counting oracle on random small integer intervals,
// about a tenth of them inverted or zero-length.
func TestOverlapMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		ivs := make([]Interval, 1+rng.Intn(12))
		for i := range ivs {
			s := sim.Time(rng.Intn(60) - 10)
			var e sim.Time
			switch rng.Intn(10) {
			case 0:
				e = s
			case 1:
				e = s - sim.Time(1+rng.Intn(8))
			default:
				e = s + sim.Time(1+rng.Intn(20))
			}
			ivs[i] = Interval{Start: s, End: e}
		}
		checkOracle(t, ivs)
	}
}

// FuzzOverlapTime decodes byte pairs into small signed intervals and
// holds OverlapTime and the streaming MergeAccumulator to the oracle.
func FuzzOverlapTime(f *testing.F) {
	f.Add([]byte{10, 40, 20, 55, 35, 60, 80, 95})
	f.Add([]byte{5, 5, 9, 3, 0, 4, 4, 6})
	f.Add([]byte{200, 10, 250, 255, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		ivs := make([]Interval, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			ivs = append(ivs, Interval{Start: sim.Time(int8(data[i])), End: sim.Time(int8(data[i+1]))})
		}
		checkOracle(t, ivs)
	})
}
