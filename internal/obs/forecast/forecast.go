// Package forecast is the online prediction layer of the observability
// subsystem: it consumes the streaming windowed estimator's series
// (BPS, bandwidth, IOPS per fixed window) one closed window at a time
// and emits one-step-ahead forecasts and burst alerts while the run is
// still in flight — the LASSi-style "metrics first, act before the
// burst lands" model applied to the paper's metric.
//
// Three cheap models run side by side per series — an EWMA baseline, a
// seasonal-naive predictor (value one season ago), and a rolling
// linear-trend extrapolation — and the emitted forecast is whichever
// model currently has the lowest rolling absolute error on its past
// one-step-ahead predictions. Everything is pure float arithmetic over
// the observed sequence in order: equal inputs produce equal forecasts,
// so pinned series golden-test the whole layer.
package forecast

import (
	"fmt"

	"bps/internal/core"
	"bps/internal/trace"
)

// Model identifies one of the candidate predictors.
type Model int

const (
	// ModelEWMA predicts the exponentially weighted moving average of
	// everything seen so far.
	ModelEWMA Model = iota

	// ModelTrend fits a least-squares line to the last TrendWindow
	// observations and extrapolates one step.
	ModelTrend

	// ModelSeasonal predicts the value observed one season (Season
	// windows) ago.
	ModelSeasonal

	numModels
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelEWMA:
		return "ewma"
	case ModelTrend:
		return "trend"
	case ModelSeasonal:
		return "seasonal"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Config parameterizes the predictor. The zero value is usable: every
// field falls back to the default noted on it.
type Config struct {
	// Alpha is the EWMA smoothing factor in (0, 1]; higher tracks
	// faster. Default 0.3.
	Alpha float64

	// Season is the seasonal-naive lag in windows. Default 8.
	Season int

	// TrendWindow is the linear model's fit window. Default 8.
	TrendWindow int

	// ErrWindow is the rolling window (in one-step-ahead predictions)
	// over which per-model error is scored for selection. Default 16.
	ErrWindow int

	// BurstK is the burst threshold: an observed or forecast value
	// above BurstK times the EWMA baseline raises an alert. Default 2.5.
	BurstK float64

	// MinBaseline floors the baseline used in the burst comparison, so
	// near-idle stretches don't alert on the first real work. Values
	// are in the series' own unit (blocks/s for BPS). Default 1.
	MinBaseline float64

	// Warmup suppresses alerts for the first Warmup windows of a
	// series, while the baseline is still settling. Default Season.
	Warmup int
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.Season <= 0 {
		c.Season = 8
	}
	if c.TrendWindow <= 1 {
		c.TrendWindow = 8
	}
	if c.ErrWindow <= 0 {
		c.ErrWindow = 16
	}
	if c.BurstK <= 1 {
		c.BurstK = 2.5
	}
	if c.MinBaseline <= 0 {
		c.MinBaseline = 1
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Season
	}
	return c
}

// AlertKind distinguishes how a burst was detected.
type AlertKind int

const (
	// AlertObserved fires when a window's observed value crossed the
	// threshold.
	AlertObserved AlertKind = iota

	// AlertForecast fires when the forecast for the next window crosses
	// the threshold before any observation does — the actionable one.
	AlertForecast
)

// String implements fmt.Stringer.
func (k AlertKind) String() string {
	if k == AlertForecast {
		return "forecast"
	}
	return "observed"
}

// Alert is one burst detection.
type Alert struct {
	Series string    // series name ("bps", "bw", "iops")
	Window int       // index of the window that triggered it
	Kind   AlertKind // observed or forecast
	Value  float64   // the offending value (observed, or forecast for Window+1)
	Limit  float64   // the threshold it crossed (BurstK × baseline)
}

// Point is the predictor's output for one observed window.
type Point struct {
	Index    int     // window index (0-based over the observed sequence)
	Observed float64 // the value fed in
	Forecast float64 // one-step-ahead forecast for window Index+1
	Model    Model   // the model that produced Forecast
	Baseline float64 // EWMA baseline before this observation
}

// Series is the online predictor for one metric. Feed it closed-window
// values in order with Observe; it is not safe for concurrent use.
type Series struct {
	name string
	cfg  Config

	hist []float64 // all observations (index = window)
	ewma float64

	// pred[m] is model m's standing prediction for the next
	// observation; err[m] its rolling absolute errors.
	pred [numModels]float64
	errs [numModels][]float64

	points []Point
	alerts []Alert
}

// NewSeries returns a predictor for one named series.
func NewSeries(name string, cfg Config) *Series {
	return &Series{name: name, cfg: cfg.withDefaults()}
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Observe feeds the next window's observed value and returns the
// predictor's point for it (forecast for the next window, chosen model,
// baseline). Alerts raised by this observation are appended to Alerts.
func (s *Series) Observe(x float64) Point {
	idx := len(s.hist)
	baseline := s.ewma
	if idx == 0 {
		baseline = x
	}

	// Score each model's standing prediction against the observation.
	if idx > 0 {
		for m := Model(0); m < numModels; m++ {
			e := s.pred[m] - x
			if e < 0 {
				e = -e
			}
			s.errs[m] = append(s.errs[m], e)
			if len(s.errs[m]) > s.cfg.ErrWindow {
				s.errs[m] = s.errs[m][1:]
			}
		}
	}

	s.hist = append(s.hist, x)
	if idx == 0 {
		s.ewma = x
	} else {
		s.ewma = s.cfg.Alpha*x + (1-s.cfg.Alpha)*s.ewma
	}

	// Refresh each model's prediction for the next window.
	s.pred[ModelEWMA] = s.ewma
	s.pred[ModelTrend] = clampNonNeg(s.trendNext())
	s.pred[ModelSeasonal] = s.seasonalNext()

	best := s.bestModel()
	pt := Point{
		Index:    idx,
		Observed: x,
		Forecast: s.pred[best],
		Model:    best,
		Baseline: baseline,
	}
	s.points = append(s.points, pt)

	// Burst detection against the pre-observation baseline.
	if idx >= s.cfg.Warmup {
		limit := s.cfg.BurstK * maxf(baseline, s.cfg.MinBaseline)
		if x > limit {
			s.alerts = append(s.alerts, Alert{
				Series: s.name, Window: idx, Kind: AlertObserved, Value: x, Limit: limit,
			})
		}
		// The forecast alert compares against the post-observation
		// baseline: "given everything seen, the next window is
		// predicted to burst".
		flimit := s.cfg.BurstK * maxf(s.ewma, s.cfg.MinBaseline)
		if pt.Forecast > flimit {
			s.alerts = append(s.alerts, Alert{
				Series: s.name, Window: idx, Kind: AlertForecast, Value: pt.Forecast, Limit: flimit,
			})
		}
	}
	return pt
}

// trendNext extrapolates a least-squares line over the last TrendWindow
// observations one step forward. With fewer than two observations it
// repeats the last value.
func (s *Series) trendNext() float64 {
	n := len(s.hist)
	if n == 0 {
		return 0
	}
	k := s.cfg.TrendWindow
	if k > n {
		k = n
	}
	if k < 2 {
		return s.hist[n-1]
	}
	win := s.hist[n-k:]
	// x = 0..k-1, predict at x = k.
	var sumX, sumY, sumXY, sumXX float64
	for i, y := range win {
		x := float64(i)
		sumX += x
		sumY += y
		sumXY += x * y
		sumXX += x * x
	}
	fk := float64(k)
	den := fk*sumXX - sumX*sumX
	if den == 0 {
		return win[k-1]
	}
	slope := (fk*sumXY - sumX*sumY) / den
	intercept := (sumY - slope*sumX) / fk
	return intercept + slope*fk
}

// seasonalNext predicts the value one season ago; before a full season
// of history it repeats the last value.
func (s *Series) seasonalNext() float64 {
	n := len(s.hist)
	if n == 0 {
		return 0
	}
	// The next observation has index n; one season before it is n-Season.
	if i := n - s.cfg.Season; i >= 0 {
		return s.hist[i]
	}
	return s.hist[n-1]
}

// bestModel returns the model with the lowest rolling mean absolute
// error, preferring the earlier model (EWMA < trend < seasonal) on ties
// or when no errors have been scored yet.
func (s *Series) bestModel() Model {
	best := ModelEWMA
	bestMAE := mae(s.errs[ModelEWMA])
	for m := ModelEWMA + 1; m < numModels; m++ {
		if e := mae(s.errs[m]); e < bestMAE {
			best, bestMAE = m, e
		}
	}
	return best
}

// Points returns every observed point in order.
func (s *Series) Points() []Point { return s.points }

// Alerts returns every alert raised so far in order.
func (s *Series) Alerts() []Alert { return s.alerts }

// Last returns the most recent point (zero Point before any
// observation).
func (s *Series) Last() Point {
	if len(s.points) == 0 {
		return Point{Index: -1}
	}
	return s.points[len(s.points)-1]
}

// MAE returns the selected model's current rolling mean absolute error.
func (s *Series) MAE() float64 { return mae(s.errs[s.bestModel()]) }

func mae(errs []float64) float64 {
	if len(errs) == 0 {
		return 0
	}
	var sum float64
	for _, e := range errs {
		sum += e
	}
	return sum / float64(len(errs))
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// TrackedSeries lists the window metrics the tracker forecasts, in
// feed order.
var TrackedSeries = []string{"bps", "bw", "iops"}

// Tracker runs one predictor per tracked window metric and fans each
// closed window out to all of them.
type Tracker struct {
	cfg    Config
	series []*Series
	alerts []Alert // every series' alerts, in window then series order
}

// NewTracker returns a tracker with one Series per TrackedSeries name.
// The BPS config is used as given; the bandwidth series scales
// MinBaseline by the block size so the floor means the same physical
// rate.
func NewTracker(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	t := &Tracker{cfg: cfg}
	for _, name := range TrackedSeries {
		scfg := cfg
		if name == "bw" {
			scfg.MinBaseline = cfg.MinBaseline * trace.BlockSize
		}
		t.series = append(t.series, NewSeries(name, scfg))
	}
	return t
}

// ObserveWindow feeds one closed window to every tracked series and
// returns the alerts this window raised, in series order.
func (t *Tracker) ObserveWindow(w core.Window) []Alert {
	start := len(t.alerts)
	for _, s := range t.series {
		before := len(s.alerts)
		switch s.name {
		case "bps":
			s.Observe(w.BPS())
		case "bw":
			s.Observe(w.Bandwidth())
		case "iops":
			s.Observe(w.IOPS())
		}
		t.alerts = append(t.alerts, s.alerts[before:]...)
	}
	return t.alerts[start:len(t.alerts):len(t.alerts)]
}

// Series returns the tracked series in TrackedSeries order.
func (t *Tracker) Series() []*Series { return t.series }

// SeriesByName returns one tracked series (nil when absent).
func (t *Tracker) SeriesByName(name string) *Series {
	for _, s := range t.series {
		if s.name == name {
			return s
		}
	}
	return nil
}

// Alerts returns every alert across all series, ordered by window then
// series feed order: both alert kinds carry the index of the window
// whose observation raised them, so appending each window's alerts as
// it is fed keeps that order. The slice is the tracker's own; callers
// must not modify it.
func (t *Tracker) Alerts() []Alert { return t.alerts }

// Windows returns how many windows have been observed.
func (t *Tracker) Windows() int {
	if len(t.series) == 0 {
		return 0
	}
	return len(t.series[0].points)
}
