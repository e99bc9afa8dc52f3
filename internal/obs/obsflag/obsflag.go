// Package obsflag is the observability front end shared by bpsbench and
// bpstrace: one flag set (-trace-out, -metrics-out, -attrib-out,
// -windows, -windows-out, -serve, -forecast, -parallel), one rule check
// against what a run can produce, one live-serving set-up, and one
// exporter for the files and reports a finished run yields.
//
// A simulated figure, a live backend run and a trace replay all reduce
// to the same per-access records, so they share one surface: the caller
// states which outputs its run can produce (Output) and the flags that
// need anything else are rejected before the run starts.
package obsflag

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"bps/internal/obs"
	"bps/internal/obs/attrib"
	"bps/internal/obs/forecast"
	"bps/internal/obs/serve"
	"bps/internal/report"
	"bps/internal/sim"
)

// DefaultWindows is the window width in seconds that -serve, -forecast
// and -windows-out select when -windows is unset.
const DefaultWindows = 0.01

// Output is a set of things a run can produce for the export flags.
type Output uint8

const (
	ChromeTrace Output = 1 << iota // Chrome trace-event JSON (-trace-out)
	Spans                          // layer spans: blame table, folded stacks (-attrib-out)
	Metrics                        // metrics registry (-metrics-out)
	Windows                        // window series (-windows, -windows-out, -forecast, -serve)

	All = ChromeTrace | Spans | Metrics | Windows // an observed simulation
)

// Flags holds the shared observability flag values.
type Flags struct {
	TraceOut, MetricsOut, AttribOut, WindowsOut, Serve string

	Windows  float64 // window width in seconds; 0 = off
	Forecast bool
	Parallel int
}

// Register declares the shared flags on fs and returns their values,
// filled in when fs is parsed.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the observed run as Chrome trace-event JSON here (simulated runs: app plus per-layer spans; bpstrace without -replay: app accesses only)")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the observed run's per-layer metrics as CSV here")
	fs.StringVar(&f.AttribOut, "attrib-out", "", "run the critical-path profiler, print the per-layer blame table, and write folded flame-graph stacks here (simulated runs only)")
	fs.Float64Var(&f.Windows, "windows", 0, "streaming windowed estimator width in seconds (0 = off); prints the per-window BPS/IOPS/BW/ARPT series")
	fs.StringVar(&f.WindowsOut, "windows-out", "", "write the run's window series as CSV here (defaults -windows to 0.01)")
	fs.StringVar(&f.Serve, "serve", "", "serve live observability on this address while the run executes (/metrics /windows /forecast /stream); forces -parallel 1 and defaults -windows to 0.01")
	fs.BoolVar(&f.Forecast, "forecast", false, "run the online burst forecaster over the run's window series and print per-window forecasts and alerts (defaults -windows to 0.01)")
	fs.IntVar(&f.Parallel, "parallel", runtime.NumCPU(), "worker goroutines for figure sweeps and multi-stack replays (results are identical for any value)")
	return f
}

// Check rejects the first set flag whose output run (which produces
// can) lacks, naming the flag and the missing output. It then applies
// the shared defaults: -serve, -forecast and -windows-out set an unset
// -windows to DefaultWindows, and -serve forces -parallel 1, since one
// publisher follows one run at a time.
func (f *Flags) Check(can Output, run string) error {
	for _, r := range []struct {
		flag string
		set  bool
		need Output
		what string
	}{
		{"-trace-out", f.TraceOut != "", ChromeTrace, "a Chrome trace"},
		{"-metrics-out", f.MetricsOut != "", Metrics, "a metrics registry"},
		{"-attrib-out", f.AttribOut != "", Spans, "layer spans"},
		{"-windows", f.Windows > 0, Windows, "a window series"},
		{"-windows-out", f.WindowsOut != "", Windows, "a window series"},
		{"-forecast", f.Forecast, Windows, "a window series"},
		{"-serve", f.Serve != "", Windows, "a window series"},
	} {
		if r.set && can&r.need == 0 {
			return fmt.Errorf("%s needs %s, which %s does not produce", r.flag, r.what, run)
		}
	}
	if f.Windows == 0 && (f.Serve != "" || f.Forecast || f.WindowsOut != "") {
		f.Windows = DefaultWindows
	}
	if f.Serve != "" {
		f.Parallel = 1
	}
	return nil
}

// WindowEvery is -windows as a simulated duration.
func (f *Flags) WindowEvery() sim.Time { return sim.Time(f.Windows * float64(sim.Second)) }

// Options returns the observer options the flags ask of a simulated
// run, or nil when they ask for none; call it after Check, which may
// enable -windows. A non-nil publish becomes the sampler's tick hook.
func (f *Flags) Options(publish func(sim.Time, serve.Source)) *obs.Options {
	if f.TraceOut == "" && f.MetricsOut == "" && f.AttribOut == "" && f.Windows <= 0 && f.Serve == "" {
		return nil
	}
	opts := &obs.Options{
		ChromeTrace: f.TraceOut != "",
		SampleEvery: sim.Millisecond,
		Attribution: f.AttribOut != "",
		WindowEvery: f.WindowEvery(),
	}
	if publish != nil {
		opts.Tick = func(now sim.Time, o *obs.Observer) { publish(now, o) }
	}
	return opts
}

// StartServe starts the live observability server on -serve for the run
// named label, measured against ceilingBPS (0 = no roofline view). It
// returns the run's publish hook and a function that stops the server;
// without -serve the hook is nil and stop does nothing.
func (f *Flags) StartServe(label string, ceilingBPS float64) (publish func(sim.Time, serve.Source), stop func(), err error) {
	if f.Serve == "" {
		return nil, func() {}, nil
	}
	pub := serve.NewPublisher(label, forecast.Config{})
	pub.SetRoofline(ceilingBPS)
	srv, err := serve.Start(f.Serve, pub)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "[serving live observability on http://%s]\n", srv.Addr())
	return pub.Publish, func() { srv.Close() }, nil
}

// Run is what a finished run hands the exporter; Check has ensured it
// holds every piece the set flags need.
type Run struct {
	Label    string                // names the run in status lines
	Trace    func(io.Writer) error // writes the Chrome trace-event JSON
	Registry *obs.Registry         // the run's metrics
	Report   *attrib.Report        // blame, folded stacks and windows
}

// Export writes what the flags ask of run: the attribution report and
// burst forecast to w, and the Chrome trace, metrics CSV, folded stacks
// and windows CSV to their files, with status lines on stderr.
func (f *Flags) Export(w io.Writer, run Run) error {
	if f.AttribOut != "" || f.Windows > 0 {
		report.WriteAttribution(w, run.Report)
	}
	if f.Forecast {
		report.WriteForecast(w, run.Report, forecast.Config{})
	}
	for _, out := range []struct {
		name, what string
		write      func(io.Writer) error
	}{
		{f.TraceOut, "Chrome trace", run.Trace},
		{f.MetricsOut, "per-layer metrics", func(w io.Writer) error { return report.WriteObsCSV(w, run.Registry) }},
		{f.AttribOut, "folded stacks", run.Report.WriteFolded},
		{f.WindowsOut, "window series", func(w io.Writer) error { return report.WriteWindowsCSV(w, run.Report) }},
	} {
		if out.name == "" {
			continue
		}
		if err := WriteFile(out.name, fmt.Sprintf("%s of run %q", out.what, run.Label), out.write); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile creates name, runs write on it and closes it, then reports
// on stderr that it wrote what there.
func WriteFile(name, what string, write func(io.Writer) error) error {
	fh, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := write(fh); err != nil {
		fh.Close()
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := fh.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[wrote %s to %s]\n", what, name)
	return nil
}
