package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bps/internal/experiments"
	"bps/internal/report"
)

func TestRunTables(t *testing.T) {
	// Tables are static; run() writes them to stdout, so exercise the
	// report writers through the same paths run() uses.
	var sb strings.Builder
	report.WriteTable1(&sb)
	report.WriteTable2(&sb)
	out := sb.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "Table 2") {
		t.Fatalf("tables output:\n%s", out)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	suite := experiments.NewSuite(experiments.Params{Scale: 1.0 / 1024, Seed: 1})
	if err := run(io.Discard, suite, "fig99", true); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunSingleFigureTiny(t *testing.T) {
	// A tiny-scale single figure exercises the full pipeline.
	suite := experiments.NewSuite(experiments.Params{Scale: 1.0 / 2048, Seed: 1})
	if err := run(io.Discard, suite, "fig5", true); err != nil {
		t.Fatal(err)
	}
}

func TestTimedWrapsSuite(t *testing.T) {
	suite := experiments.NewSuite(experiments.Params{Scale: 1.0 / 2048, Seed: 1})
	f, err := timed(suite, "fig7", true)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "fig7" || !f.IsDetail {
		t.Fatalf("figure = %+v", f)
	}
	if _, err := timed(suite, "nope", true); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// benchArgs parses args as bpsbench's command line and runs it,
// returning what it printed.
func benchArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	o, err := parseArgs(args)
	if err != nil {
		t.Fatalf("parseArgs(%q): %v", args, err)
	}
	var out bytes.Buffer
	err = bench(&out, o)
	return out.String(), err
}

// checkExports asserts every named file under dir is non-empty and the
// windows CSV, when present, carries its header.
func checkExports(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || len(data) == 0 {
			t.Errorf("%s: missing or empty (%v)", name, err)
			continue
		}
		if name == "w.csv" && !strings.HasPrefix(string(data), "start_s,end_s,ops,blocks,busy_s,") {
			t.Errorf("windows CSV header: %q", strings.SplitN(string(data), "\n", 2)[0])
		}
	}
}

// TestBenchSimExports: a reproduced figure writes every export, and
// -windows-out alone turns the window series on.
func TestBenchSimExports(t *testing.T) {
	dir := t.TempDir()
	out, err := benchArgs(t, "-fig", "fig9", "-scale", "0.002", "-q", "-parallel", "2",
		"-trace-out", filepath.Join(dir, "t.json"),
		"-metrics-out", filepath.Join(dir, "m.csv"),
		"-attrib-out", filepath.Join(dir, "a.folded"),
		"-windows-out", filepath.Join(dir, "w.csv"),
		"-forecast")
	if err != nil {
		t.Fatal(err)
	}
	checkExports(t, dir, "t.json", "m.csv", "a.folded", "w.csv")
	for _, want := range []string{"Fig9", "Critical-path attribution", "windows (0.010s each)", "Burst forecast"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q", want)
		}
	}
}

// TestBenchLiveExports: a live backend run honours -metrics-out,
// -windows-out, -forecast and -serve, and prints B with its byte count.
func TestBenchLiveExports(t *testing.T) {
	dir := t.TempDir()
	out, err := benchArgs(t, "-backend", "mem", "-live-procs", "2", "-live-mb", "2",
		"-metrics-out", filepath.Join(dir, "m.csv"),
		"-windows-out", filepath.Join(dir, "w.csv"),
		"-forecast", "-serve", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	checkExports(t, dir, "m.csv", "w.csv")
	for _, want := range []string{
		"[live mem backend, virtual clock, 2 workers]",
		"required blocks (B): 8192 (4194304 bytes)",
		"windows (0.010s each)",
		"Burst forecast",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestBenchRejectsFlags: an export flag the run cannot serve fails
// before anything runs, naming the flag the user passed.
func TestBenchRejectsFlags(t *testing.T) {
	cases := [][]string{
		{"-backend", "mem", "-trace-out", "t.json"},
		{"-backend", "os", "-attrib-out", "a.folded"},
		{"-fig", "suite", "-seeds", "2", "-metrics-out", "m.csv"},
		{"-fig", "fig5", "-seeds", "2", "-forecast"},
		{"-fig", "fig5", "-seeds", "2", "-serve", "127.0.0.1:0"},
		{"-fig", "table1", "-trace-out", "t.json"},
		{"-fig", "table2", "-windows", "0.01"},
		{"-fig", "livemem", "-windows-out", "w.csv"},
	}
	for _, args := range cases {
		flagName := args[len(args)-1]
		if !strings.HasPrefix(flagName, "-") {
			flagName = args[len(args)-2]
		}
		out, err := benchArgs(t, args...)
		if err == nil || !strings.HasPrefix(err.Error(), flagName+" ") {
			t.Errorf("%q: err = %v, want one naming %s", args, err, flagName)
		}
		if out != "" {
			t.Errorf("%q: printed before failing:\n%s", args, out)
		}
	}
}

// TestFaultsAliasRemoved: -fig faults is the only spelling of the
// FaultSweep.
func TestFaultsAliasRemoved(t *testing.T) {
	if _, err := parseArgs([]string{"-faults"}); err == nil {
		t.Fatal("-faults still parses")
	}
}

// TestLiveCeilingBounds: every virtual-clock worker runs its own lane at
// the cost model's full rate, so the roofline ceiling scales with the
// worker count and no run exceeds it.
func TestLiveCeilingBounds(t *testing.T) {
	re := regexp.MustCompile(`headroom ([0-9.]+)%`)
	for _, procs := range []string{"1", "2", "4"} {
		out, err := benchArgs(t, "-backend", "mem", "-live-procs", procs, "-live-mb", "2")
		if err != nil {
			t.Fatal(err)
		}
		m := re.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("procs %s: no headroom line:\n%s", procs, out)
		}
		if h, _ := strconv.ParseFloat(m[1], 64); h > 100 {
			t.Errorf("procs %s: headroom %.1f%% exceeds the ceiling", procs, h)
		}
	}
}
