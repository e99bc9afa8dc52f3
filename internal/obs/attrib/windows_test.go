package attrib

import (
	"math"
	"reflect"
	"testing"

	"bps/internal/core"
	"bps/internal/sim"
	"bps/internal/trace"
)

const win = 10 * sim.Millisecond

// windowed returns a collector serving only the streaming windows; these
// tests drive core.WindowEstimator through it.
func windowed() *Collector { return NewCollector(Config{WindowEvery: win}) }

// TestWindowsCompletionAttribution: work lands in the window containing
// the access's end, with an end exactly on a boundary belonging to the
// left window.
func TestWindowsCompletionAttribution(t *testing.T) {
	e := windowed()
	e.AddAccess(4, 0, win)             // ends exactly on the first boundary → window 0
	e.AddAccess(8, win/2, win+1)       // crosses the boundary → window 1
	e.AddAccess(2, 2*win, 2*win+win/2) // window 2
	wins := e.AppendLiveWindows(nil)

	if len(wins) != 3 {
		t.Fatalf("windows = %d, want 3", len(wins))
	}
	if wins[0].Ops != 1 || wins[0].Blocks != 4 {
		t.Errorf("window 0 ops/blocks = %d/%d, want 1/4", wins[0].Ops, wins[0].Blocks)
	}
	if wins[1].Ops != 1 || wins[1].Blocks != 8 {
		t.Errorf("window 1 ops/blocks = %d/%d, want 1/8", wins[1].Ops, wins[1].Blocks)
	}
	if wins[2].Ops != 1 || wins[2].Blocks != 2 {
		t.Errorf("window 2 ops/blocks = %d/%d, want 1/2", wins[2].Ops, wins[2].Blocks)
	}
	for i, w := range wins {
		if w.Start != sim.Time(i)*win || w.End != sim.Time(i+1)*win {
			t.Errorf("window %d bounds [%d,%d), want [%d,%d)", i, w.Start, w.End,
				sim.Time(i)*win, sim.Time(i+1)*win)
		}
	}
}

// TestWindowsBusyUnion: busy is the overlap union clipped to each
// window — concurrent accesses are counted once, idle gaps not at all.
func TestWindowsBusyUnion(t *testing.T) {
	e := windowed()
	// Two concurrent accesses covering [0, 6ms); idle until 8ms; then
	// one access crossing into the second window.
	e.AddAccess(1, 0, 6*sim.Millisecond)
	e.AddAccess(1, 2*sim.Millisecond, 6*sim.Millisecond)
	e.AddAccess(1, 8*sim.Millisecond, 14*sim.Millisecond)
	wins := e.AppendLiveWindows(nil)

	if len(wins) != 2 {
		t.Fatalf("windows = %d, want 2", len(wins))
	}
	if want := 8 * sim.Millisecond; wins[0].Busy != want { // [0,6) ∪ [8,10)
		t.Errorf("window 0 busy = %v, want %v", wins[0].Busy, want)
	}
	if want := 4 * sim.Millisecond; wins[1].Busy != want { // [10,14)
		t.Errorf("window 1 busy = %v, want %v", wins[1].Busy, want)
	}
	if got, want := wins[0].Utilization(), 0.8; got != want {
		t.Errorf("window 0 utilization = %v, want %v", got, want)
	}
}

// TestWindowsContinuousThroughGaps: a long idle stretch still yields
// the in-between empty windows, so the series has no holes.
func TestWindowsContinuousThroughGaps(t *testing.T) {
	e := windowed()
	e.AddAccess(1, 0, sim.Millisecond)
	e.AddAccess(1, 5*win, 5*win+sim.Millisecond)
	wins := e.AppendLiveWindows(nil)

	if len(wins) != 6 {
		t.Fatalf("windows = %d, want 6 (gap windows included)", len(wins))
	}
	for i := 1; i <= 4; i++ {
		if wins[i].Ops != 0 || wins[i].Busy != 0 {
			t.Errorf("gap window %d ops/busy = %d/%v, want 0/0", i, wins[i].Ops, wins[i].Busy)
		}
		if wins[i].BPS() != 0 || wins[i].ARPT() != 0 {
			t.Errorf("gap window %d rates nonzero", i)
		}
	}
}

// TestWindowRates checks the per-window metric arithmetic against hand
// computation.
func TestWindowRates(t *testing.T) {
	w := core.Window{
		Start: 0, End: win,
		Ops: 4, Blocks: 64,
		SumDur: 8 * sim.Millisecond,
		Busy:   5 * sim.Millisecond,
	}
	if got, want := w.BPS(), 64/0.005; got != want {
		t.Errorf("BPS = %v, want %v", got, want)
	}
	if got, want := w.IOPS(), 4/0.005; got != want {
		t.Errorf("IOPS = %v, want %v", got, want)
	}
	if got, want := w.Bandwidth(), 64*float64(trace.BlockSize)/0.005; got != want {
		t.Errorf("Bandwidth = %v, want %v", got, want)
	}
	if got, want := w.ARPT(), 0.008/4; got != want {
		t.Errorf("ARPT = %v, want %v", got, want)
	}

	var zero core.Window
	if zero.BPS() != 0 || zero.IOPS() != 0 || zero.Bandwidth() != 0 ||
		zero.ARPT() != 0 || zero.Utilization() != 0 {
		t.Error("zero window produced nonzero rates")
	}
}

// TestEstimatorRejectsBadInput: negative or inverted intervals are
// dropped rather than corrupting the grid.
func TestEstimatorRejectsBadInput(t *testing.T) {
	e := windowed()
	e.AddAccess(1, -5, 5)
	e.AddAccess(1, 10, 5)
	if e.AppendLiveWindows(nil) != nil {
		t.Fatal("bad input produced windows")
	}
	var nc *Collector
	nc.AddAccess(1, 0, 1)
	if nc.AppendLiveWindows(nil) != nil || nc.WindowEvery() != 0 {
		t.Fatal("nil collector produced data")
	}
	if c := NewCollector(Config{}); c.AppendLiveWindows(nil) != nil || c.WindowEvery() != 0 {
		t.Fatal("collector without windows produced data")
	}
}

// TestEstimatorOutOfOrderFinishes: the simulation feeds completions in
// end-time order, but the estimator must not depend on it — the same
// accesses added in any order produce the identical series.
func TestEstimatorOutOfOrderFinishes(t *testing.T) {
	accesses := [][3]sim.Time{ // {blocks (as Time for brevity), start, end}
		{4, 0, 3 * sim.Millisecond},
		{8, 2 * sim.Millisecond, 15 * sim.Millisecond},
		{2, 12 * sim.Millisecond, 13 * sim.Millisecond},
		{6, 25 * sim.Millisecond, 31 * sim.Millisecond},
		{1, 9 * sim.Millisecond, 9 * sim.Millisecond},
	}
	feed := func(order []int) []core.Window {
		e := windowed()
		for _, i := range order {
			a := accesses[i]
			e.AddAccess(int64(a[0]), a[1], a[2])
		}
		return e.AppendLiveWindows(nil)
	}
	sorted := feed([]int{0, 4, 2, 1, 3})
	reversed := feed([]int{3, 1, 2, 4, 0})
	shuffled := feed([]int{2, 0, 3, 1, 4})
	if !reflect.DeepEqual(sorted, reversed) || !reflect.DeepEqual(sorted, shuffled) {
		t.Fatalf("series depends on add order:\nsorted:   %+v\nreversed: %+v\nshuffled: %+v",
			sorted, reversed, shuffled)
	}
}

// TestEstimatorStraddlingSpan: one access spanning several whole
// windows books its ops/blocks in the completion window but spreads its
// busy time across every window it crosses.
func TestEstimatorStraddlingSpan(t *testing.T) {
	e := windowed()
	// [5ms, 35ms): crosses windows 0..3, completes in window 3.
	e.AddAccess(10, win/2, 3*win+win/2)
	wins := e.AppendLiveWindows(nil)
	if len(wins) != 4 {
		t.Fatalf("windows = %d, want 4", len(wins))
	}
	for i, w := range wins {
		wantOps := int64(0)
		if i == 3 {
			wantOps = 1
		}
		if w.Ops != wantOps {
			t.Errorf("window %d ops = %d, want %d (completion-time attribution)", i, w.Ops, wantOps)
		}
		wantBusy := win
		if i == 0 || i == 3 {
			wantBusy = win / 2
		}
		if w.Busy != wantBusy {
			t.Errorf("window %d busy = %v, want %v", i, w.Busy, wantBusy)
		}
	}
	if wins[3].Blocks != 10 {
		t.Errorf("window 3 blocks = %d, want 10", wins[3].Blocks)
	}
	// Middle windows are busy the whole time but complete nothing: their
	// rates must still be finite (zero ops, nonzero busy).
	if got := wins[1].BPS(); got != 0 {
		t.Errorf("window 1 BPS = %v, want 0 (no completions)", got)
	}
	if got := wins[1].Utilization(); got != 1 {
		t.Errorf("window 1 utilization = %v, want 1", got)
	}
}

// TestEstimatorSpanEndingOnBoundary: a span ending exactly on a window
// boundary contributes busy only to the left window and none past it.
func TestEstimatorSpanEndingOnBoundary(t *testing.T) {
	e := windowed()
	e.AddAccess(5, win/2, 2*win) // ends exactly at the window-1/2 boundary
	wins := e.AppendLiveWindows(nil)
	if len(wins) != 2 {
		t.Fatalf("windows = %d, want 2 (boundary end belongs left)", len(wins))
	}
	if wins[1].Ops != 1 || wins[1].Blocks != 5 {
		t.Errorf("window 1 ops/blocks = %d/%d, want 1/5", wins[1].Ops, wins[1].Blocks)
	}
	if wins[0].Busy != win/2 || wins[1].Busy != win {
		t.Errorf("busy = %v,%v, want %v,%v", wins[0].Busy, wins[1].Busy, win/2, win)
	}
}

// TestWindowRatesNeverNaNOrInf sweeps degenerate windows — zero busy,
// zero width, zero ops, inverted bounds — through every rate helper:
// all must return finite values (satellite: no NaN/Inf in exports).
func TestWindowRatesNeverNaNOrInf(t *testing.T) {
	cases := []core.Window{
		{},
		{Start: win, End: win}, // zero width
		{Start: win, End: 2 * win, Ops: 3, Blocks: 12}, // ops but no busy
		{Start: win, End: 2 * win, Busy: win},          // busy but no ops
		{Start: 2 * win, End: win, Ops: 1, Blocks: 1},  // inverted bounds
		{Start: 0, End: win, SumDur: win, Busy: -win},  // negative busy
	}
	for i, w := range cases {
		for name, v := range map[string]float64{
			"BPS": w.BPS(), "IOPS": w.IOPS(), "Bandwidth": w.Bandwidth(),
			"ARPT": w.ARPT(), "Utilization": w.Utilization(),
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("case %d: %s = %v on %+v", i, name, v, w)
			}
		}
	}
	// The common degenerate values are exactly zero, not merely finite.
	z := core.Window{Start: win, End: win}
	if z.BPS() != 0 || z.Utilization() != 0 {
		t.Errorf("zero-width window rates: BPS=%v Util=%v, want 0", z.BPS(), z.Utilization())
	}
}

// TestEstimatorZeroDuration: an instantaneous access still counts as an
// op in its window but adds no busy time.
func TestEstimatorZeroDuration(t *testing.T) {
	e := windowed()
	e.AddAccess(3, win/2, win/2)
	wins := e.AppendLiveWindows(nil)
	if len(wins) != 1 || wins[0].Ops != 1 || wins[0].Blocks != 3 || wins[0].Busy != 0 {
		t.Fatalf("zero-duration access: %+v", wins)
	}
}

// TestEstimatorZeroLengthOnFirstStart: a zero-length access completing
// exactly on the first window's start books in that window rather than
// vanishing left of the series.
func TestEstimatorZeroLengthOnFirstStart(t *testing.T) {
	e := windowed()
	e.AddAccess(3, win, win)
	e.AddAccess(2, win+win/2, 2*win)
	wins := e.AppendLiveWindows(nil)
	if len(wins) != 1 || wins[0].Start != win || wins[0].Ops != 2 || wins[0].Blocks != 5 {
		t.Fatalf("windows = %+v, want one window [%v,%v) with both accesses", wins, win, 2*win)
	}
}
