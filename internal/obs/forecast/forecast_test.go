package forecast

import (
	"math/rand"
	"reflect"
	"testing"

	"bps/internal/core"
	"bps/internal/sim"
	"bps/internal/trace"
)

// TestGoldenSeries pins the predictor's full output — forecasts, model
// selection, baselines, and alerts — for a fixed input with spikes one
// season apart. The forecaster is pure arithmetic over the observation
// sequence, so every value must match bit for bit; any drift here is a
// behavior change, not noise. Note the forecast alert at window 8: the
// seasonal model predicts the window-9 burst one step before it lands.
func TestGoldenSeries(t *testing.T) {
	in := []float64{100, 120, 80, 110, 400, 90, 105, 95, 115, 420, 100, 110}
	cfg := Config{Alpha: 0.5, Season: 5, TrendWindow: 4, ErrWindow: 6, BurstK: 2, MinBaseline: 10, Warmup: 3}

	want := []Point{
		{0, 100, 100, ModelEWMA, 100},
		{1, 120, 110, ModelEWMA, 100},
		{2, 80, 95, ModelEWMA, 110},
		{3, 110, 102.5, ModelEWMA, 95},
		{4, 400, 251.25, ModelEWMA, 102.5},
		{5, 90, 120, ModelSeasonal, 251.25},
		{6, 105, 80, ModelSeasonal, 170.625},
		{7, 95, 110, ModelSeasonal, 137.8125},
		{8, 115, 400, ModelSeasonal, 116.40625},
		{9, 420, 90, ModelSeasonal, 115.703125},
		{10, 100, 105, ModelSeasonal, 267.8515625},
		{11, 110, 95, ModelSeasonal, 183.92578125},
	}
	wantAlerts := []Alert{
		{"bps", 4, AlertObserved, 400, 205},
		{"bps", 8, AlertForecast, 400, 231.40625},
		{"bps", 9, AlertObserved, 420, 231.40625},
	}

	s := NewSeries("bps", cfg)
	for i, x := range in {
		got := s.Observe(x)
		if got != want[i] {
			t.Errorf("point %d: got %+v, want %+v", i, got, want[i])
		}
	}
	alerts := s.Alerts()
	if len(alerts) != len(wantAlerts) {
		t.Fatalf("got %d alerts %+v, want %d", len(alerts), alerts, len(wantAlerts))
	}
	for i, a := range alerts {
		if a != wantAlerts[i] {
			t.Errorf("alert %d: got %+v, want %+v", i, a, wantAlerts[i])
		}
	}
}

// TestGoldenDeterminism replays the golden input twice and requires
// bit-identical outputs — the forecaster must be a pure function of its
// observation sequence.
func TestGoldenDeterminism(t *testing.T) {
	in := []float64{100, 120, 80, 110, 400, 90, 105, 95, 115, 420, 100, 110}
	run := func() ([]Point, []Alert) {
		s := NewSeries("x", Config{Alpha: 0.5, Season: 5, TrendWindow: 4, ErrWindow: 6, BurstK: 2, MinBaseline: 10, Warmup: 3})
		for _, x := range in {
			s.Observe(x)
		}
		return s.Points(), s.Alerts()
	}
	p1, a1 := run()
	p2, a2 := run()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("point %d differs across runs: %+v vs %+v", i, p1[i], p2[i])
		}
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("alert %d differs across runs: %+v vs %+v", i, a1[i], a2[i])
		}
	}
}

// TestConstantSeries checks the degenerate steady state: every model
// predicts the constant exactly, EWMA wins on the tie-break, and no
// alerts fire.
func TestConstantSeries(t *testing.T) {
	s := NewSeries("c", Config{})
	for i := 0; i < 50; i++ {
		pt := s.Observe(42)
		if pt.Forecast != 42 {
			t.Fatalf("window %d: forecast %v, want 42", i, pt.Forecast)
		}
		if pt.Model != ModelEWMA {
			t.Fatalf("window %d: model %v, want ewma on ties", i, pt.Model)
		}
	}
	if alerts := s.Alerts(); len(alerts) != 0 {
		t.Fatalf("constant series raised alerts: %+v", alerts)
	}
}

// TestTrendSelection checks that a steady linear ramp hands the
// selection to the trend model, whose extrapolation then beats EWMA's
// systematic lag.
func TestTrendSelection(t *testing.T) {
	s := NewSeries("t", Config{})
	var last Point
	for i := 0; i < 40; i++ {
		last = s.Observe(float64(100 + 10*i))
	}
	if last.Model != ModelTrend {
		t.Fatalf("ramp selected %v, want trend", last.Model)
	}
	next := float64(100 + 10*40)
	if diff := last.Forecast - next; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("trend forecast %v, want %v", last.Forecast, next)
	}
}

// TestSeasonalSelection checks that a strictly periodic series hands
// the selection to the seasonal-naive model and forecasts exactly one
// period back.
func TestSeasonalSelection(t *testing.T) {
	period := []float64{10, 500, 20, 30}
	s := NewSeries("s", Config{Season: 4, Warmup: 1 << 30}) // alerts off
	var last Point
	for i := 0; i < 48; i++ {
		last = s.Observe(period[i%4])
	}
	if last.Model != ModelSeasonal {
		t.Fatalf("periodic series selected %v, want seasonal", last.Model)
	}
	if want := period[48%4]; last.Forecast != want {
		t.Fatalf("seasonal forecast %v, want %v", last.Forecast, want)
	}
}

// TestWarmupSuppressesAlerts checks that bursts inside the warmup
// window stay silent and identical bursts after it alert.
func TestWarmupSuppressesAlerts(t *testing.T) {
	cfg := Config{Warmup: 5, BurstK: 2, Season: 3}
	s := NewSeries("w", cfg)
	s.Observe(100)
	s.Observe(1000) // burst at window 1: inside warmup
	for i := 2; i < 5; i++ {
		s.Observe(100)
	}
	if n := len(s.Alerts()); n != 0 {
		t.Fatalf("warmup window raised %d alerts: %+v", n, s.Alerts())
	}
	s.Observe(10000) // window 5: past warmup
	found := false
	for _, a := range s.Alerts() {
		if a.Window == 5 && a.Kind == AlertObserved {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-warmup burst raised no observed alert: %+v", s.Alerts())
	}
}

// TestMinBaselineFloor checks that near-idle series don't alert on the
// first real work when the floor covers it.
func TestMinBaselineFloor(t *testing.T) {
	s := NewSeries("f", Config{MinBaseline: 1000, BurstK: 2, Warmup: 1})
	s.Observe(0)
	s.Observe(0)
	s.Observe(1500) // above 2×EWMA(≈0) but below 2×floor
	if n := len(s.Alerts()); n != 0 {
		t.Fatalf("floored series alerted: %+v", s.Alerts())
	}
	s.Observe(5000) // above 2×floor too
	if n := len(s.Alerts()); n == 0 {
		t.Fatal("genuine burst above the floor raised no alert")
	}
}

// TestTrackerFansOut checks that one window feeds all three tracked
// series with its own rate helpers' values.
func TestTrackerFansOut(t *testing.T) {
	tr := NewTracker(Config{})
	w := core.Window{
		Start: 0, End: 10 * sim.Millisecond,
		Ops: 4, Blocks: 2048, SumDur: 8 * sim.Millisecond, Busy: 10 * sim.Millisecond,
	}
	tr.ObserveWindow(w)
	if got := tr.Windows(); got != 1 {
		t.Fatalf("Windows() = %d, want 1", got)
	}
	checks := map[string]float64{"bps": w.BPS(), "bw": w.Bandwidth(), "iops": w.IOPS()}
	for name, want := range checks {
		s := tr.SeriesByName(name)
		if s == nil {
			t.Fatalf("series %q missing", name)
		}
		if got := s.Last().Observed; got != want {
			t.Errorf("series %q observed %v, want %v", name, got, want)
		}
	}
}

// TestTrackerBandwidthFloor checks that the bw series' burst floor is
// the BPS floor scaled to bytes, so both floors mean the same physical
// rate.
func TestTrackerBandwidthFloor(t *testing.T) {
	tr := NewTracker(Config{MinBaseline: 7})
	bw := tr.SeriesByName("bw")
	if got, want := bw.cfg.MinBaseline, 7.0*trace.BlockSize; got != want {
		t.Fatalf("bw MinBaseline = %v, want %v", got, want)
	}
	if got := tr.SeriesByName("bps").cfg.MinBaseline; got != 7 {
		t.Fatalf("bps MinBaseline = %v, want 7", got)
	}
}

// TestConfigDefaults checks the zero config resolves to the documented
// defaults.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	want := Config{Alpha: 0.3, Season: 8, TrendWindow: 8, ErrWindow: 16, BurstK: 2.5, MinBaseline: 1, Warmup: 8}
	if c != want {
		t.Fatalf("defaults = %+v, want %+v", c, want)
	}
}

// alertsByScan is the reference for Tracker.Alerts: for each window
// index in turn, every series' alerts raised at that index, in series
// feed order.
func alertsByScan(t *Tracker) []Alert {
	var out []Alert
	for i := 0; i < t.Windows(); i++ {
		for _, s := range t.series {
			for _, a := range s.alerts {
				if a.Window == i {
					out = append(out, a)
				}
			}
		}
	}
	return out
}

// TestTrackerAlertsOrder checks the tracker's merged alert list against
// the per-window scan after every window of random bursty series, and
// that the random series raise both alert kinds.
func TestTrackerAlertsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	kinds := map[AlertKind]int{}
	for trial := 0; trial < 50; trial++ {
		tr := NewTracker(Config{BurstK: 1.2 + rng.Float64(), Season: 1 + rng.Intn(6), Warmup: 1 + rng.Intn(4)})
		for i := 0; i < 60; i++ {
			w := core.Window{
				Start: sim.Time(i) * 10 * sim.Millisecond, End: sim.Time(i+1) * 10 * sim.Millisecond,
				Ops: 1 + rng.Int63n(20), Blocks: 1 + rng.Int63n(4096),
				Busy: sim.Time(1 + rng.Int63n(int64(10*sim.Millisecond))),
			}
			if rng.Intn(5) == 0 {
				w.Blocks *= 20 // a burst in BPS and bandwidth alone
			}
			tr.ObserveWindow(w)
			if got, want := tr.Alerts(), alertsByScan(tr); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d window %d: Alerts() = %+v, want %+v", trial, i, got, want)
			}
		}
		for _, a := range tr.Alerts() {
			kinds[a.Kind]++
		}
	}
	if kinds[AlertObserved] == 0 || kinds[AlertForecast] == 0 {
		t.Fatalf("random series raised alerts %v, want both kinds", kinds)
	}
}
