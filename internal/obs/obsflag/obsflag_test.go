package obsflag

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bps/internal/obs"
	"bps/internal/obs/attrib"
	"bps/internal/obs/serve"
	"bps/internal/sim"
)

// parse registers the shared flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// The producer kinds the commands declare.
var producers = []struct {
	name string
	can  Output
}{
	{"simulated figure or replay", All},
	{"live backend", Metrics | Windows},
	{"trace without replay", ChromeTrace},
	{"multi-seed or suite", 0},
}

// TestCheckRules drives every export flag against every producer kind:
// a flag is accepted exactly when the producer makes its output, and a
// rejection names the flag.
func TestCheckRules(t *testing.T) {
	flags := []struct {
		args []string
		need Output
	}{
		{[]string{"-trace-out", "t.json"}, ChromeTrace},
		{[]string{"-metrics-out", "m.csv"}, Metrics},
		{[]string{"-attrib-out", "a.folded"}, Spans},
		{[]string{"-windows", "0.05"}, Windows},
		{[]string{"-windows-out", "w.csv"}, Windows},
		{[]string{"-forecast"}, Windows},
		{[]string{"-serve", "127.0.0.1:0"}, Windows},
	}
	for _, p := range producers {
		for _, fl := range flags {
			t.Run(p.name+"/"+fl.args[0], func(t *testing.T) {
				err := parse(t, fl.args...).Check(p.can, p.name)
				if want := p.can&fl.need != 0; want != (err == nil) {
					t.Fatalf("Check = %v, want accepted %v", err, want)
				}
				if err != nil && !strings.HasPrefix(err.Error(), fl.args[0]+" needs ") {
					t.Errorf("error %q does not lead with the flag %s", err, fl.args[0])
				}
				if err != nil && !strings.Contains(err.Error(), p.name) {
					t.Errorf("error %q does not name the run %q", err, p.name)
				}
			})
		}
	}
}

// TestCheckNoFlags: a run that produces nothing accepts an empty flag
// set and observes nothing.
func TestCheckNoFlags(t *testing.T) {
	for _, p := range producers {
		f := parse(t)
		if err := f.Check(p.can, p.name); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
		if f.Options(nil) != nil {
			t.Errorf("%s: observing with no flags set", p.name)
		}
	}
}

// TestCheckDefaults: -serve, -forecast and -windows-out default -windows
// to 0.01 s; an explicit -windows wins; -serve forces -parallel 1.
func TestCheckDefaults(t *testing.T) {
	cases := []struct {
		args     []string
		windows  float64
		parallel int // 0: left at the registered default
	}{
		{[]string{"-serve", "127.0.0.1:0", "-parallel", "8"}, DefaultWindows, 1},
		{[]string{"-forecast", "-parallel", "8"}, DefaultWindows, 0},
		{[]string{"-windows-out", "w.csv"}, DefaultWindows, 0},
		{[]string{"-forecast", "-windows", "0.05"}, 0.05, 0},
		{[]string{"-metrics-out", "m.csv"}, 0, 0},
	}
	for _, c := range cases {
		f := parse(t, c.args...)
		before := f.Parallel
		if err := f.Check(All, "a simulation"); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if f.Windows != c.windows {
			t.Errorf("%v: -windows = %g, want %g", c.args, f.Windows, c.windows)
		}
		want := c.parallel
		if want == 0 {
			want = before
		}
		if f.Parallel != want {
			t.Errorf("%v: -parallel = %d, want %d", c.args, f.Parallel, want)
		}
		if f.Options(nil) == nil {
			t.Errorf("%v: not observing", c.args)
		}
	}
}

// TestOptions: the observer options follow the flags, and a publish
// hook becomes the sampler's tick.
func TestOptions(t *testing.T) {
	f := parse(t, "-trace-out", "t.json", "-attrib-out", "a.folded", "-windows", "0.02")
	opts := f.Options(nil)
	want := obs.Options{ChromeTrace: true, SampleEvery: sim.Millisecond, Attribution: true, WindowEvery: 20 * sim.Millisecond}
	if opts == nil || !reflect.DeepEqual(*opts, want) {
		t.Fatalf("Options = %+v, want %+v", opts, want)
	}
	ticks := 0
	opts = f.Options(func(sim.Time, serve.Source) { ticks++ })
	opts.Tick(0, nil)
	if ticks != 1 {
		t.Errorf("publish ran %d times through Tick, want 1", ticks)
	}
}

// TestExport writes every export a full run supports and checks that
// each lands: files non-empty, report and forecast on w.
func TestExport(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	f := parse(t,
		"-trace-out", path("t.json"), "-metrics-out", path("m.csv"),
		"-attrib-out", path("a.folded"), "-windows-out", path("w.csv"), "-forecast")
	if err := f.Check(All, "a simulation"); err != nil {
		t.Fatal(err)
	}
	c := attrib.NewCollector(attrib.Config{Spans: true, WindowEvery: f.WindowEvery()})
	c.AddApp(0, 15*sim.Millisecond)
	c.AddSpan(0, 0, 15*sim.Millisecond)
	c.AddAccess(8, 0, 15*sim.Millisecond)
	reg := obs.NewRegistry()
	reg.Counter("ioreq/test/ops").Add(1)
	var out bytes.Buffer
	err := f.Export(&out, Run{
		Label:    "test",
		Trace:    (&obs.TraceBuffer{}).Write,
		Registry: reg,
		Report:   c.Report(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t.json", "m.csv", "a.folded", "w.csv"} {
		if fi, err := os.Stat(path(name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", name, err)
		}
	}
	for _, want := range []string{"Critical-path attribution", "windows (0.010s each)", "Burst forecast"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}
