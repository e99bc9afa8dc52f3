package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bps"
)

// writeTempTrace writes records in the given format under a temp dir.
func writeTempTrace(t *testing.T, name string, records []bps.Record, write func(*os.File) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func sampleRecords() []bps.Record {
	return []bps.Record{
		{PID: 1, Blocks: 128, Start: 0, End: 10 * bps.Millisecond},
		{PID: 2, Blocks: 128, Start: 0, End: 10 * bps.Millisecond},
		{PID: 1, Blocks: 64, Start: 20 * bps.Millisecond, End: 25 * bps.Millisecond},
	}
}

func TestRunBinaryTrace(t *testing.T) {
	recs := sampleRecords()
	path := writeTempTrace(t, "t.bin", recs, func(f *os.File) error {
		return bps.WriteTrace(f, recs)
	})
	var out bytes.Buffer
	if err := run(&out, []string{path}, options{format: "auto"}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"accesses (N):        3", "required blocks (B): 320", "BPS:"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// T = union = 15ms (two concurrent 10ms + one 5ms after a gap).
	if !strings.Contains(s, "overlapped T:        0.015000 s") {
		t.Errorf("wrong T:\n%s", s)
	}
}

func TestRunCSVAndJSONLAutoDetect(t *testing.T) {
	recs := sampleRecords()
	csvPath := writeTempTrace(t, "t.csv", recs, func(f *os.File) error {
		return bps.WriteTraceCSV(f, recs)
	})
	jsonlPath := writeTempTrace(t, "t.jsonl", recs, func(f *os.File) error {
		return bps.WriteTraceJSONL(f, recs)
	})
	for _, path := range []string{csvPath, jsonlPath} {
		var out bytes.Buffer
		if err := run(&out, []string{path}, options{format: "auto"}); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !strings.Contains(out.String(), "accesses (N):        3") {
			t.Errorf("%s: wrong output:\n%s", path, out.String())
		}
	}
}

func TestRunMergesMultipleFiles(t *testing.T) {
	recs := sampleRecords()
	p1 := writeTempTrace(t, "a.bin", recs[:2], func(f *os.File) error {
		return bps.WriteTrace(f, recs[:2])
	})
	p2 := writeTempTrace(t, "b.bin", recs[2:], func(f *os.File) error {
		return bps.WriteTrace(f, recs[2:])
	})
	var out bytes.Buffer
	if err := run(&out, []string{p1, p2}, options{format: "binary"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "accesses (N):        3") {
		t.Errorf("merge failed:\n%s", out.String())
	}
}

func TestRunPerPIDAndOverrides(t *testing.T) {
	recs := sampleRecords()
	path := writeTempTrace(t, "t.bin", recs, func(f *os.File) error {
		return bps.WriteTrace(f, recs)
	})
	var out bytes.Buffer
	opts := options{format: "binary", perPID: true, moved: 1 << 20, execSeconds: 2}
	if err := run(&out, []string{path}, opts); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "[pid 1]") || !strings.Contains(s, "[pid 2]") {
		t.Errorf("per-pid sections missing:\n%s", s)
	}
	if !strings.Contains(s, "moved bytes (M):     1048576") {
		t.Errorf("moved override ignored:\n%s", s)
	}
	if !strings.Contains(s, "exec time:           2.000000 s") {
		t.Errorf("exec override ignored:\n%s", s)
	}
}

func TestRunWindowAndLatency(t *testing.T) {
	recs := sampleRecords()
	path := writeTempTrace(t, "t.bin", recs, func(f *os.File) error {
		return bps.WriteTrace(f, recs)
	})
	var out bytes.Buffer
	if err := run(&out, []string{path}, options{format: "binary", windowSeconds: 0.01, latency: true}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "[timeline, window 0.010s]") {
		t.Errorf("timeline missing:\n%s", s)
	}
	if !strings.Contains(s, "p99") {
		t.Errorf("latency summary missing:\n%s", s)
	}
}

// TestRunWindowMalformedRecord: -window on a record ending before it
// starts is an error naming the record, not a panic.
func TestRunWindowMalformedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(path, []byte("pid,blocks,start_ns,end_ns\n1,8,100000000,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(&bytes.Buffer{}, []string{path}, options{format: "auto", windowSeconds: 0.01})
	if err == nil || !strings.Contains(err.Error(), "pid 1, blocks 8, start 100000000, end 0") {
		t.Fatalf("err = %v, want an error naming the record", err)
	}
}

func TestRunBlkparse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.blkparse")
	content := "8,0 1 1 0.000100 42 D R 1000 + 8 [app]\n8,0 1 2 0.005100 42 C R 1000 + 8 [0]\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, []string{path}, options{format: "auto"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "required blocks (B): 8") {
		t.Errorf("blkparse output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(&bytes.Buffer{}, []string{"/nonexistent/file"}, options{format: "auto"}); err == nil {
		t.Error("missing file accepted")
	}
	empty := writeTempTrace(t, "empty.bin", nil, func(f *os.File) error { return nil })
	if err := run(&bytes.Buffer{}, []string{empty}, options{format: "binary"}); err == nil {
		t.Error("empty trace accepted")
	}
	if err := run(&bytes.Buffer{}, []string{empty}, options{format: "nope"}); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestSpanHelper(t *testing.T) {
	recs := []bps.Record{
		{Start: 10, End: 20},
		{Start: 5, End: 12},
		{Start: 18, End: 40},
	}
	if got := bps.Span(recs); got != 35 {
		t.Fatalf("span = %v, want 35", got)
	}
}

func TestRunReplay(t *testing.T) {
	recs := sampleRecords()
	path := writeTempTrace(t, "t.bin", recs, func(f *os.File) error {
		return bps.WriteTrace(f, recs)
	})
	var out bytes.Buffer
	if err := run(&out, []string{path}, options{format: "binary", replay: "ssd"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[replayed on ssd]") {
		t.Errorf("replay section missing:\n%s", out.String())
	}
	if err := run(&out, []string{path}, options{format: "binary", replay: "bogus"}); err == nil {
		t.Error("bogus stack accepted")
	}
}

// runArgs parses args as bpstrace's command line and runs it,
// returning what it printed.
func runArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	opts, files, err := parseArgs(args)
	if err != nil {
		t.Fatalf("parseArgs(%q): %v", args, err)
	}
	var out bytes.Buffer
	err = run(&out, files, opts)
	return out.String(), err
}

func sampleTrace(t *testing.T) string {
	recs := sampleRecords()
	return writeTempTrace(t, "t.bin", recs, func(f *os.File) error {
		return bps.WriteTrace(f, recs)
	})
}

// TestRunReplayExports: a single-stack replay writes every export; the
// "wrote" status lines stay off the report.
func TestRunReplayExports(t *testing.T) {
	path := sampleTrace(t)
	dir := t.TempDir()
	out, err := runArgs(t, "-replay", "ssd",
		"-trace-out", filepath.Join(dir, "t.json"),
		"-metrics-out", filepath.Join(dir, "m.csv"),
		"-attrib-out", filepath.Join(dir, "a.folded"),
		"-windows-out", filepath.Join(dir, "w.csv"),
		"-forecast", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t.json", "m.csv", "a.folded", "w.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || len(data) == 0 {
			t.Errorf("%s: missing or empty (%v)", name, err)
			continue
		}
		if name == "w.csv" && !strings.HasPrefix(string(data), "start_s,end_s,ops,blocks,busy_s,") {
			t.Errorf("windows CSV header: %q", strings.SplitN(string(data), "\n", 2)[0])
		}
	}
	for _, want := range []string{"[replayed on ssd]", "Critical-path attribution", "Burst forecast"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q", want)
		}
	}
	if strings.Contains(out, "wrote") {
		t.Errorf("status lines on stdout:\n%s", out)
	}
}

// TestRunAppTrace: without -replay, -trace-out exports the trace's own
// accesses.
func TestRunAppTrace(t *testing.T) {
	name := filepath.Join(t.TempDir(), "app.json")
	if _, err := runArgs(t, "-trace-out", name, sampleTrace(t)); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(name); err != nil || !strings.Contains(string(data), `"traceEvents"`) {
		t.Errorf("app trace: %v\n%s", err, data)
	}
}

// TestRunRejectsFlags: an export flag the run cannot serve fails before
// anything prints, naming the flag the user passed.
func TestRunRejectsFlags(t *testing.T) {
	path := sampleTrace(t)
	cases := [][]string{
		{"-forecast"},
		{"-serve", "127.0.0.1:0"},
		{"-windows-out", "w.csv"},
		{"-metrics-out", "m.csv"},
		{"-attrib-out", "a.folded"},
		{"-replay", "ssd,hdd", "-trace-out", "t.json"},
		{"-replay", "ssd,hdd", "-windows", "0.01"},
	}
	for _, args := range cases {
		flagName := args[len(args)-1]
		if !strings.HasPrefix(flagName, "-") {
			flagName = args[len(args)-2]
		}
		out, err := runArgs(t, append(args, path)...)
		if err == nil || !strings.HasPrefix(err.Error(), flagName+" ") {
			t.Errorf("%q: err = %v, want one naming %s", args, err, flagName)
		}
		if out != "" {
			t.Errorf("%q: printed before failing:\n%s", args, out)
		}
	}
}
