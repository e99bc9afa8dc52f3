package experiments

import (
	"math"

	"bps/internal/core"
)

// PaperCC records the normalized CC values the paper reports (or
// implies) for one figure. Magnitudes the paper states only
// approximately are carried as approximate values; magnitudes it does
// not state at all (it reports only "wrong correlation direction") are
// NaN with the sign carried separately.
type PaperCC struct {
	// Sign is the paper's reported correlation direction per metric:
	// +1 matches Table 1's expectation, −1 contradicts it.
	Sign map[core.MetricKind]int

	// AbsCC is the paper's reported |CC| where stated; NaN when the
	// paper gives no magnitude.
	AbsCC map[core.MetricKind]float64
}

// PaperResults holds the paper's §IV.C outcomes for every CC figure.
var PaperResults = map[string]PaperCC{
	"fig4": {
		Sign:  map[core.MetricKind]int{core.IOPS: +1, core.BW: +1, core.ARPT: +1, core.BPS: +1},
		AbsCC: map[core.MetricKind]float64{core.IOPS: 0.93, core.BW: 0.93, core.ARPT: 0.93, core.BPS: 0.93},
	},
	"fig5": {
		Sign:  map[core.MetricKind]int{core.IOPS: -1, core.BW: +1, core.ARPT: -1, core.BPS: +1},
		AbsCC: map[core.MetricKind]float64{core.IOPS: math.NaN(), core.BW: 0.90, core.ARPT: math.NaN(), core.BPS: 0.90},
	},
	"fig6": {
		Sign:  map[core.MetricKind]int{core.IOPS: -1, core.BW: +1, core.ARPT: -1, core.BPS: +1},
		AbsCC: map[core.MetricKind]float64{core.IOPS: math.NaN(), core.BW: 0.90, core.ARPT: math.NaN(), core.BPS: 0.90},
	},
	"fig9": {
		Sign:  map[core.MetricKind]int{core.IOPS: +1, core.BW: +1, core.ARPT: -1, core.BPS: +1},
		AbsCC: map[core.MetricKind]float64{core.IOPS: 0.96, core.BW: 0.96, core.ARPT: 0.58, core.BPS: 0.96},
	},
	"fig11": {
		Sign:  map[core.MetricKind]int{core.IOPS: +1, core.BW: +1, core.ARPT: -1, core.BPS: +1},
		AbsCC: map[core.MetricKind]float64{core.IOPS: 0.91, core.BW: 0.91, core.ARPT: 0.39, core.BPS: 0.91},
	},
	"fig12": {
		Sign:  map[core.MetricKind]int{core.IOPS: +1, core.BW: -1, core.ARPT: +1, core.BPS: +1},
		AbsCC: map[core.MetricKind]float64{core.IOPS: 0.92, core.BW: math.NaN(), core.ARPT: 0.92, core.BPS: 0.92},
	},
}

// Agreement compares a reproduced figure against the paper's outcome.
type Agreement struct {
	FigureID string

	// SignMatches reports, per metric, whether the measured CC's sign
	// matches the paper's — the qualitative reproduction criterion.
	SignMatches map[core.MetricKind]bool

	// Measured holds the measured normalized CC.
	Measured map[core.MetricKind]float64

	// Paper holds the paper's outcome.
	Paper PaperCC
}

// Compare evaluates a reproduced CC figure against PaperResults. The
// second return is false when the paper reports nothing for the figure
// (detail figures, extensions).
func Compare(f Figure) (Agreement, bool) {
	paper, ok := PaperResults[f.ID]
	if !ok || f.CC == nil {
		return Agreement{}, false
	}
	a := Agreement{
		FigureID:    f.ID,
		SignMatches: make(map[core.MetricKind]bool),
		Measured:    make(map[core.MetricKind]float64),
		Paper:       paper,
	}
	for _, k := range core.Kinds {
		cc := f.CC.CC[k]
		a.Measured[k] = cc
		sign := 0
		switch {
		case cc > 0:
			sign = +1
		case cc < 0:
			sign = -1
		}
		a.SignMatches[k] = sign == paper.Sign[k]
	}
	return a, true
}
