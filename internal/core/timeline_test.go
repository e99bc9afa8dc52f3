package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"bps/internal/sim"
	"bps/internal/trace"
)

func TestTimelineEmptyAndInvalid(t *testing.T) {
	if _, err := Timeline(trace.Gather(), 0); err == nil {
		t.Error("zero window accepted")
	}
	pts, err := Timeline(trace.Gather(), sim.Second)
	if err != nil || pts != nil {
		t.Errorf("empty trace: pts=%v err=%v", pts, err)
	}
}

// TestTimelineRejectsMalformedRecords: a negative start or an end
// before the start is an error naming the record, not a panic or a
// silently dropped access.
func TestTimelineRejectsMalformedRecords(t *testing.T) {
	for _, r := range []trace.Record{
		{PID: 1, Blocks: 8, Start: 100_000_000, End: 0},
		{PID: 2, Blocks: 8, Start: -5, End: 5},
	} {
		good := trace.Record{PID: 3, Blocks: 1, Start: 0, End: sim.Millisecond}
		pts, err := Timeline(trace.FromRecords([]trace.Record{good, r}), sim.Second)
		if err == nil || pts != nil {
			t.Fatalf("record %+v: pts=%v err=%v, want an error", r, pts, err)
		}
		if want := fmt.Sprintf("record 1 (pid %d, blocks 8, start %d, end %d)", r.PID, r.Start, r.End); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestEstimatorFarTimestampBounded: buckets cover the run's extent, not
// the time since the clock origin, so an access at 1e14 ns allocates
// one bucket, and an earlier one grows the range at most twofold.
func TestEstimatorFarTimestampBounded(t *testing.T) {
	const at = sim.Time(100_000_000_000_000)
	e := NewWindowEstimator(10 * sim.Millisecond)
	e.Add(8, at, at+sim.Millisecond)
	if len(e.buckets) != 1 || cap(e.buckets) > 1 {
		t.Fatalf("one access at 1e14 ns: %d buckets (cap %d), want 1", len(e.buckets), cap(e.buckets))
	}
	e.Add(4, at-35*sim.Millisecond, at-30*sim.Millisecond)
	if cap(e.buckets) > 2*5 {
		t.Fatalf("extent of 5 windows holds %d buckets", cap(e.buckets))
	}
	wins := e.Windows()
	if len(wins) != 5 || wins[0].Start != at-40*sim.Millisecond || wins[4].Ops != 1 || wins[0].Ops != 1 {
		t.Fatalf("windows = %+v", wins)
	}
}

func TestTimelineBasic(t *testing.T) {
	c := trace.NewCollector(1)
	// Window grid of 1s. Activity: [0.2s,0.7s), idle, [2.1s,2.3s).
	c.Record(100, 200*sim.Millisecond, 700*sim.Millisecond)
	c.Record(50, 2100*sim.Millisecond, 2300*sim.Millisecond)
	pts, err := Timeline(trace.Gather(c), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("windows = %d, want 3", len(pts))
	}
	if pts[0].Ops != 1 || pts[0].Blocks != 100 || pts[0].Busy != 500*sim.Millisecond {
		t.Fatalf("window 0 = %+v", pts[0])
	}
	if pts[1].Ops != 0 || pts[1].Busy != 0 || pts[1].BPS() != 0 {
		t.Fatalf("idle window 1 = %+v", pts[1])
	}
	if pts[2].Ops != 1 || pts[2].Blocks != 50 || pts[2].Busy != 200*sim.Millisecond {
		t.Fatalf("window 2 = %+v", pts[2])
	}
	if u := pts[0].Utilization(); u != 0.5 {
		t.Fatalf("window 0 utilization = %v", u)
	}
	// Window 0 BPS: 100 blocks / 0.5s busy.
	if got := pts[0].BPS(); got != 200 {
		t.Fatalf("window 0 BPS = %v", got)
	}
}

func TestTimelineSpanningRecord(t *testing.T) {
	c := trace.NewCollector(1)
	// One access spanning three windows; completion attribution puts the
	// blocks in the last one, busy time is split exactly.
	c.Record(300, 500*sim.Millisecond, 2500*sim.Millisecond)
	pts, err := Timeline(trace.Gather(c), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("windows = %d", len(pts))
	}
	if pts[0].Blocks != 0 || pts[1].Blocks != 0 || pts[2].Blocks != 300 {
		t.Fatalf("completion attribution wrong: %+v", pts)
	}
	if pts[0].Busy != 500*sim.Millisecond || pts[1].Busy != sim.Second || pts[2].Busy != 500*sim.Millisecond {
		t.Fatalf("busy split wrong: %v %v %v", pts[0].Busy, pts[1].Busy, pts[2].Busy)
	}
}

func TestTimelineConcurrencyCountedOnce(t *testing.T) {
	c := trace.NewCollector(1)
	// Four fully-overlapping accesses in one window.
	for i := 0; i < 4; i++ {
		c.Record(10, 100*sim.Millisecond, 400*sim.Millisecond)
	}
	pts, err := Timeline(trace.Gather(c), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Busy != 300*sim.Millisecond {
		t.Fatalf("busy = %v, concurrent time counted multiply", pts[0].Busy)
	}
	if pts[0].Ops != 4 || pts[0].Blocks != 40 {
		t.Fatalf("ops/blocks = %d/%d", pts[0].Ops, pts[0].Blocks)
	}
}

// Property: window busy times sum to the overlap union, and window
// ops/blocks sum to the totals, for any trace and window size.
func TestTimelineConservationProperty(t *testing.T) {
	prop := func(seed int64, nRaw, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		window := sim.Time(wRaw%200)*sim.Millisecond + 50*sim.Millisecond
		records := make([]trace.Record, n)
		for i := range records {
			start := sim.Time(rng.Int63n(int64(3 * sim.Second)))
			records[i] = trace.Record{
				PID:    1,
				Blocks: rng.Int63n(100) + 1,
				Start:  start,
				End:    start + sim.Time(rng.Int63n(int64(sim.Second))),
			}
		}
		g := trace.FromRecords(records)
		pts, err := Timeline(g, window)
		if err != nil {
			return false
		}
		var busy sim.Time
		var ops, blocks int64
		for _, p := range pts {
			busy += p.Busy
			ops += p.Ops
			blocks += p.Blocks
			if p.Busy < 0 || p.Busy > window {
				return false
			}
		}
		return busy == OverlapTime(records) &&
			ops == int64(len(records)) &&
			blocks == g.TotalBlocks()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorNilAndDefaultWidth(t *testing.T) {
	var ne *WindowEstimator
	ne.Add(1, 0, 1)
	if ne.Windows() != nil || ne.Every() != 0 {
		t.Fatal("nil estimator produced data")
	}
	if got := NewWindowEstimator(0).Every(); got != 10*sim.Millisecond {
		t.Fatalf("default width = %v, want 10ms", got)
	}
}
