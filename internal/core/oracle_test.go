package core

import (
	"math/rand"
	"reflect"
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

// TestOverlapMatchesBruteForce cross-checks T against the cell-counting oracle on random small integer intervals,
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
// holds OverlapTime and OverlapIntervals to the oracle.
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

// bruteWindows is the oracle for the windowed series. It books each
// access in the earliest window, no earlier than the one holding the
// earliest start, whose right edge reaches the access's end, and counts
// per window the unit cells [c, c+1) some access covers. It shares no
// code with WindowEstimator. The records must be well formed, and their
// extent (not their position) small.
func bruteWindows(records []trace.Record, width sim.Time) []Window {
	if len(records) == 0 {
		return nil
	}
	first := records[0].Start / width
	for _, r := range records {
		first = min(first, r.Start/width)
	}
	var wins []Window
	for _, r := range records {
		k := first
		for (k+1)*width < r.End {
			k++
		}
		for sim.Time(len(wins)) <= k-first {
			i := first + sim.Time(len(wins))
			wins = append(wins, Window{Start: i * width, End: (i + 1) * width})
		}
		w := &wins[k-first]
		w.Ops++
		w.Blocks += r.Blocks
		w.SumDur += r.End - r.Start
	}
	for i := range wins {
		for c := wins[i].Start; c < wins[i].End; c++ {
			for _, r := range records {
				if r.Start <= c && c+1 <= r.End {
					wins[i].Busy++
					break
				}
			}
		}
	}
	return wins
}

// checkTimeline holds Timeline, and a WindowEstimator fed the records
// in reverse, to bruteWindows.
func checkTimeline(t *testing.T, records []trace.Record, width sim.Time) {
	t.Helper()
	want := bruteWindows(records, width)
	got, err := Timeline(trace.FromRecords(records), width)
	if err != nil {
		t.Fatalf("Timeline(%v, %v): %v", records, width, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Timeline(%v, %v)\n got  %+v\n want %+v", records, width, got, want)
	}
	e := NewWindowEstimator(width)
	for i := len(records) - 1; i >= 0; i-- {
		e.Add(records[i].Blocks, records[i].Start, records[i].End)
	}
	if got := e.Windows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reverse-fed estimator(%v, %v)\n got  %+v\n want %+v", records, width, got, want)
	}
}

// far is a timestamp near 1e14 ns (about 28 hours into a run).
const far = sim.Time(100_000_000_000_000)

func recs(spans ...sim.Time) []trace.Record {
	out := make([]trace.Record, 0, len(spans)/2)
	for i := 0; i+1 < len(spans); i += 2 {
		out = append(out, trace.Record{PID: 1, Blocks: int64(i + 1), Start: spans[i], End: spans[i+1]})
	}
	return out
}

func TestTimelineMatchesOracle(t *testing.T) {
	cases := []struct {
		name    string
		records []trace.Record
	}{
		{"zero-length on every boundary", recs(0, 0, 10, 10, 20, 20, 3, 7, 30, 30)},
		{"zero-length on the first window's start", recs(10, 10, 12, 15)},
		{"lone zero-length on a boundary", recs(20, 20)},
		{"spanning several windows", recs(5, 35, 12, 14, 40, 41)},
		{"last completion on a boundary", recs(3, 20, 8, 12)},
		{"concurrent and touching", recs(0, 6, 2, 6, 6, 9, 8, 14)},
		{"near 1e14 ns", recs(far+3, far+20, far, far, far+15, far+15, far+25, far+40)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkTimeline(t, c.records, 10) })
	}
}

// TestTimelineMatchesOracleRandom drives random small traces, with
// endpoints often snapped to window boundaries, some shifted near 1e14.
func TestTimelineMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1000; trial++ {
		width := sim.Time(1 + rng.Intn(12))
		var base sim.Time
		if rng.Intn(4) == 0 {
			base = far
		}
		records := make([]trace.Record, 1+rng.Intn(10))
		for i := range records {
			s := sim.Time(rng.Intn(60))
			var e sim.Time
			switch rng.Intn(5) {
			case 0:
				e = s
			case 1:
				s = s / width * width
				e = s + width*sim.Time(rng.Intn(3))
			default:
				e = s + sim.Time(1+rng.Intn(30))
			}
			records[i] = trace.Record{PID: 1, Blocks: rng.Int63n(9), Start: base + s, End: base + e}
		}
		checkTimeline(t, records, width)
	}
}

// FuzzTimeline decodes byte triples into records, some malformed: no
// input may panic, a malformed record is an error, and a well-formed
// trace matches the oracle, with Busy summing to OverlapTime and Ops
// to N.
func FuzzTimeline(f *testing.F) {
	f.Add([]byte{10, 0, 0, 0, 10, 10, 1, 3, 20, 2})
	f.Add([]byte{10, 1, 3, 20, 8, 8, 12, 1})
	f.Add([]byte{4, 0, 200, 10, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		width := sim.Time(1 + data[0]%16)
		var base sim.Time
		if data[1]&1 == 1 {
			base = far
		}
		valid := true
		var records []trace.Record
		for i := 2; i+2 < len(data) && len(records) < 16; i += 3 {
			r := trace.Record{
				PID:    1,
				Blocks: int64(data[i]),
				Start:  base + sim.Time(int8(data[i+1])),
				End:    base + sim.Time(int8(data[i+2])),
			}
			valid = valid && r.Start >= 0 && r.End >= r.Start
			records = append(records, r)
		}
		wins, err := Timeline(trace.FromRecords(records), width)
		if !valid {
			if err == nil || wins != nil {
				t.Fatalf("malformed %v: windows %v, err %v", records, wins, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Timeline(%v): %v", records, err)
		}
		var busy sim.Time
		var ops int64
		for _, w := range wins {
			busy += w.Busy
			ops += w.Ops
		}
		if busy != OverlapTime(records) || ops != int64(len(records)) {
			t.Fatalf("Timeline(%v): busy %v ops %d, want %v and %d",
				records, busy, ops, OverlapTime(records), len(records))
		}
		checkTimeline(t, records, width)
	})
}
