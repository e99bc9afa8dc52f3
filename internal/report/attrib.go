package report

import (
	"fmt"
	"io"

	"bps/internal/experiments"
	"bps/internal/obs/attrib"
)

// hasBlame reports whether any point of the figure carries a
// critical-path blame label — figures rendered without attribution keep
// their exact historical layout.
func hasBlame(f experiments.Figure) bool {
	for _, pt := range f.Points {
		if pt.Blame != "" {
			return true
		}
	}
	return false
}

// WriteAttribution renders a run's critical-path attribution report:
// the per-layer blame table partitioning the overlapped time T, the
// folded stacks, the latency quantile rows, and (when the streaming
// estimator ran) the windowed time series. Deterministic for equal
// reports, so pinned-seed output can be golden-tested.
func WriteAttribution(w io.Writer, rep *attrib.Report) {
	if rep == nil {
		return
	}
	fmt.Fprintf(w, "Critical-path attribution — T = %.6fs (blame partitions T; busy may overlap)\n",
		rep.Total.Seconds())
	fmt.Fprintf(w, "  %-8s %12s %7s %12s %10s %12s\n",
		"layer", "excl(s)", "excl%", "busy(s)", "spans", "offpath(s)")
	for _, l := range rep.Layers {
		pct := 0.0
		if rep.Total > 0 {
			pct = 100 * float64(l.Exclusive) / float64(rep.Total)
		}
		fmt.Fprintf(w, "  %-8s %12.6f %6.1f%% %12.6f %10d %12.6f\n",
			l.Layer, l.Exclusive.Seconds(), pct, l.Busy.Seconds(), l.Spans, l.OffPath.Seconds())
	}
	if dom := rep.Dominant(); dom != "" {
		fmt.Fprintf(w, "  dominant: %s\n", dom)
	}
	if len(rep.Stacks) > 0 {
		fmt.Fprintf(w, "  stacks:\n")
		for _, st := range rep.Stacks {
			path := ""
			for i, f := range st.Frames {
				if i > 0 {
					path += ";"
				}
				path += f
			}
			fmt.Fprintf(w, "    %-40s %12.6f\n", path, st.Time.Seconds())
		}
	}
	if len(rep.Latency) > 0 {
		fmt.Fprintf(w, "  latency (ns):\n")
		fmt.Fprintf(w, "    %-32s %10s %12s %12s %12s %12s %12s\n",
			"histogram", "count", "mean", "p50", "p95", "p99", "max")
		for _, row := range rep.Latency {
			fmt.Fprintf(w, "    %-32s %10d %12.0f %12d %12d %12d %12d\n",
				row.Name, row.Count, row.Mean, row.P50, row.P95, row.P99, row.Max)
		}
	}
	if len(rep.Windows) > 0 {
		WriteAttribWindows(w, rep)
	}
	fmt.Fprintln(w)
}

// WriteAttribWindows renders the streaming estimator's time series: one
// row per fixed window with its completion-attributed BPS, IOPS,
// bandwidth, ARPT, and utilization.
func WriteAttribWindows(w io.Writer, rep *attrib.Report) {
	if rep == nil || len(rep.Windows) == 0 {
		return
	}
	fmt.Fprintf(w, "  windows (%.3fs each):\n", rep.WindowEvery.Seconds())
	fmt.Fprintf(w, "    %10s %8s %10s %14s %12s %12s %12s %8s\n",
		"start(s)", "ops", "blocks", "BPS(blk/s)", "IOPS", "BW(MB/s)", "ARPT(ms)", "util")
	for _, win := range rep.Windows {
		fmt.Fprintf(w, "    %10.3f %8d %10d %14.0f %12.1f %12.2f %12.4f %7.1f%%\n",
			win.Start.Seconds(), win.Ops, win.Blocks, win.BPS(), win.IOPS(),
			win.Bandwidth()/1e6, win.ARPT()*1e3, 100*win.Utilization())
	}
}
