// Package experiments reproduces the BPS paper's evaluation (§IV): four
// experiment sets (paper Table 2) sweeping storage devices, I/O request
// sizes, I/O concurrency, and additional data movement, each yielding the
// per-metric normalized correlation coefficients of Figures 4–6, 9, 11,
// and 12 and the detail series of Figures 7, 8, and 10.
//
// Data sizes scale with Params.Scale relative to the paper's testbed so
// the same code serves fast tests (tiny scale), benchmarks (moderate
// scale), and full paper-sized runs (scale 1).
package experiments

import (
	"fmt"

	"bps/internal/core"
	"bps/internal/obs"
	"bps/internal/stats"
)

// Params controls experiment scale and reproducibility.
type Params struct {
	// Scale multiplies the paper's data sizes (1.0 = the paper's 16–64 GB
	// runs). The sweep shapes are scale-invariant as long as per-run I/O
	// remains much larger than one record.
	Scale float64

	// Seed is the base RNG seed. Each run's engine seed is derived as a
	// pure function of (Seed, sweep ID, point label) — see DeriveSeed —
	// so results are independent of sweep order and worker scheduling.
	Seed int64

	// Parallel caps the worker goroutines each sweep fans its runs out
	// across: 1 forces sequential execution, 0 (the default) means
	// GOMAXPROCS. Every value produces bit-identical results; the knob
	// only trades wall-clock time against CPU.
	Parallel int

	// FaultRates overrides the FaultSweep x-axis (the "faults" figure);
	// nil means DefaultFaultRates. The paper figures ignore it.
	FaultRates []float64
}

func (p Params) withDefaults() Params {
	if p.Scale <= 0 {
		p.Scale = 1.0 / 64
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// scaled returns bytes scaled by p.Scale, rounded up to a multiple of
// unit and at least one unit.
func (p Params) scaled(bytes int64, unit int64) int64 {
	v := int64(p.Scale * float64(bytes))
	if v < unit {
		return unit
	}
	return (v + unit - 1) / unit * unit
}

// Point is one run of a sweep: a labelled set of measurements.
type Point struct {
	Label   string
	Metrics core.Metrics
	Errors  int

	// Aux carries sweep-specific side measurements (e.g. the clientcache
	// sweep's hit rate) keyed by name; nil for most sweeps.
	Aux map[string]float64

	// Blame names the run's dominant bottleneck layer per the
	// critical-path profiler; "" unless the sweep ran with attribution.
	Blame string

	// Headroom is the run's measured BPS as a fraction of the analytic
	// roofline ceiling (internal/roofline); 0 unless the sweep computed
	// a ceiling (the suite figure does).
	Headroom float64
}

// Figure is the reproduction of one paper figure.
type Figure struct {
	ID    string // e.g. "fig4"
	Title string
	Notes string

	// XLabel names the sweep variable.
	XLabel string

	// Points holds the per-run measurements in sweep order.
	Points []Point

	// CC holds the normalized correlation coefficients (CC figures:
	// 4, 5, 6, 9, 11, 12); nil for detail figures.
	CC *stats.CCTable

	// DetailKind is the metric a detail figure (7, 8, 10) plots against
	// application execution time.
	DetailKind core.MetricKind
	IsDetail   bool
}

// ccTable computes the figure's CC table from its points.
func ccTable(label string, points []Point) *stats.CCTable {
	runs := make([]core.Metrics, len(points))
	for i, pt := range points {
		runs[i] = pt.Metrics
	}
	t := stats.NewCCTable(label, runs)
	return &t
}

// FigureIDs lists every reproducible figure in paper order.
var FigureIDs = []string{
	"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
}

// Suite runs experiments with memoized sweeps, so detail figures reuse
// the runs of their CC figures (Fig. 7 reuses Fig. 5's sweep, etc.).
type Suite struct {
	params  Params
	memo    map[string][]Point
	observe *obs.Options
	lastObs *Observation
}

// Observation is the observability data of one instrumented run.
type Observation struct {
	Label string // the sweep point's label
	Obs   *obs.Observer
}

// NewSuite returns a suite with the given parameters.
func NewSuite(p Params) *Suite {
	return &Suite{params: p.withDefaults(), memo: make(map[string][]Point)}
}

// Params returns the suite's effective parameters.
func (s *Suite) Params() Params { return s.params }

// SetObserve attaches the observability subsystem (with the given
// options) to every subsequent run; nil turns it back off. Observation
// never changes measured results — it exists so a reproduced figure's
// final run can be exported as a Chrome trace or per-layer metrics.
func (s *Suite) SetObserve(opts *obs.Options) { s.observe = opts }

// LastObservation returns the observability data of the most recent
// instrumented run, or nil when no run has been observed. Memoized
// sweeps do not rerun, so reproduce the figure of interest first.
func (s *Suite) LastObservation() *Observation { return s.lastObs }

// sweep memoizes a named sweep.
func (s *Suite) sweep(key string, run func() ([]Point, error)) ([]Point, error) {
	if pts, ok := s.memo[key]; ok {
		return pts, nil
	}
	pts, err := run()
	if err != nil {
		return nil, fmt.Errorf("experiments: sweep %s: %w", key, err)
	}
	s.memo[key] = pts
	return pts, nil
}

// Figure reproduces one figure by ID ("fig4" … "fig12").
func (s *Suite) Figure(id string) (Figure, error) {
	switch id {
	case "fig4":
		return s.fig4()
	case "fig5":
		return s.fig5()
	case "fig6":
		return s.fig6()
	case "fig7":
		return s.fig7()
	case "fig8":
		return s.fig8()
	case "fig9":
		return s.fig9()
	case "fig10":
		return s.fig10()
	case "fig11":
		return s.fig11()
	case "fig12":
		return s.fig12()
	case "ext1", "ext2", "ext3":
		return s.extension(id)
	case FaultFigureID:
		return s.figFaults()
	case ClientCacheFigureID:
		return s.figClientCache()
	case QoSFigureID:
		return s.figQoS()
	case LiveMemFigureID:
		return s.figLiveMem()
	default:
		return Figure{}, fmt.Errorf("experiments: unknown figure %q (have %v, extensions %v, %q, %q, %q, and %q)",
			id, FigureIDs, ExtensionIDs, FaultFigureID, ClientCacheFigureID, QoSFigureID, LiveMemFigureID)
	}
}
