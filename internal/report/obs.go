package report

import (
	"encoding/csv"
	"io"
	"strconv"
	"strings"

	"bps/internal/obs"
)

// splitMetric breaks a "layer/component/metric" name into its parts;
// shorter names degrade gracefully (missing parts are empty).
func splitMetric(name string) (layer, component, metric string) {
	parts := strings.SplitN(name, "/", 3)
	switch len(parts) {
	case 3:
		return parts[0], parts[1], parts[2]
	case 2:
		return parts[0], "", parts[1]
	default:
		return "", "", name
	}
}

// obsCSVHeader is the row schema of WriteObsCSV: one row per metric (and
// per derived histogram statistic), keyed by the layer/component split of
// the metric name.
var obsCSVHeader = []string{"layer", "component", "metric", "kind", "value"}

// WriteObsCSV emits the registry as CSV with per-layer columns.
// Histograms expand into .count/.mean/.p50/.p99/.max rows.
func WriteObsCSV(w io.Writer, reg *obs.Registry) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(obsCSVHeader); err != nil {
		return err
	}
	if reg == nil {
		cw.Flush()
		return cw.Error()
	}
	row := func(name, kind, value string) error {
		layer, component, metric := splitMetric(name)
		return cw.Write([]string{layer, component, metric, kind, value})
	}
	for _, c := range reg.Counters() {
		if err := row(c.Name(), "counter", strconv.FormatInt(c.Value(), 10)); err != nil {
			return err
		}
	}
	for _, h := range reg.Histograms() {
		stats := []struct {
			suffix, value string
		}{
			{".count", strconv.FormatUint(h.Count(), 10)},
			{".mean", fmtFloat(h.Mean())},
			{".p50", strconv.FormatInt(h.Quantile(0.5), 10)},
			{".p99", strconv.FormatInt(h.Quantile(0.99), 10)},
			{".max", strconv.FormatInt(h.Max(), 10)},
		}
		for _, s := range stats {
			if err := row(h.Name()+s.suffix, "histogram", s.value); err != nil {
				return err
			}
		}
	}
	for _, pr := range reg.Probes() {
		if err := row(pr.Name, "probe", fmtFloat(pr.Fn())); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
