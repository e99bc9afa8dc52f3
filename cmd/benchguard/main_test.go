package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseNsPerOp(t *testing.T) {
	in := strings.Join([]string{
		`{"Action":"start","Package":"bps/internal/sim"}`,
		`{"Action":"output","Package":"bps/internal/sim","Output":"goos: linux\n"}`,
		`{"Action":"output","Test":"BenchmarkEngineEventDispatch","Output":"34511456\t        31.07 ns/op\t       0 B/op\t       0 allocs/op\n"}`,
		`{"Action":"output","Test":"BenchmarkProcSleep","Output":" 2410411\t       498.8 ns/op\t       0 B/op\t       0 allocs/op\n"}`,
		`{"Action":"output","Test":"BenchmarkProcSleep","Output":"--- note without ns, op\n"}`,
		`{"Action":"pass","Package":"bps/internal/sim"}`,
	}, "\n") + "\n"
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	if got["BenchmarkEngineEventDispatch"].ns != 31.07 {
		t.Errorf("dispatch = %v, want 31.07", got["BenchmarkEngineEventDispatch"])
	}
	if got["BenchmarkProcSleep"].ns != 498.8 {
		t.Errorf("sleep = %v, want 498.8", got["BenchmarkProcSleep"])
	}
}

func TestParseNsPerOpRejectsGarbage(t *testing.T) {
	if _, err := parseBench(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := parseBench(strings.NewReader(`{"Action":"output","Test":"B","Output":"x y ns/op\n"}` + "\n")); err == nil {
		t.Fatal("unparseable ns/op accepted")
	}
}

func TestParseNsPerOpEmpty(t *testing.T) {
	got, err := parseBench(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v, %v", got, err)
	}
}

func TestLoadTolerances(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tol.json")
	if err := os.WriteFile(path, []byte(`{"comment":"x","tolerances":{"BenchmarkA":0.35}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tol, err := loadTolerances(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if tol["BenchmarkA"] != 0.35 {
		t.Fatalf("tolerances = %v", tol)
	}

	// The default path may be absent; an explicit one must exist.
	if tol, err := loadTolerances(filepath.Join(dir, "missing.json"), false); err != nil || tol != nil {
		t.Fatalf("missing default file: %v, %v", tol, err)
	}
	if _, err := loadTolerances(filepath.Join(dir, "missing.json"), true); err == nil {
		t.Fatal("missing explicit file accepted")
	}

	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"tolerances":{"BenchmarkA":0}}`), 0o644)
	if _, err := loadTolerances(bad, true); err == nil {
		t.Fatal("non-positive tolerance accepted")
	}
}

func TestCheckToleranceOverride(t *testing.T) {
	base := map[string]result{"BenchmarkA": {ns: 100}, "BenchmarkB": {ns: 100}}
	fresh := map[string]result{"BenchmarkA": {ns: 130}, "BenchmarkB": {ns: 130}} // +30% both
	guarded := []string{"BenchmarkA", "BenchmarkB"}

	// Global threshold 0.20: both regress.
	var out strings.Builder
	if !check(&out, base, fresh, guarded, 0.20, nil) {
		t.Fatal("30% regression passed the 20% threshold")
	}
	// An override on A alone lets it through while B still fails.
	out.Reset()
	if !check(&out, base, fresh, guarded, 0.20, map[string]float64{"BenchmarkA": 0.35}) {
		t.Fatal("B's regression was swallowed by A's override")
	}
	if !strings.Contains(out.String(), "tolerance +35%") {
		t.Fatalf("report does not show the override:\n%s", out.String())
	}
	// Overrides on both pass.
	both := map[string]float64{"BenchmarkA": 0.35, "BenchmarkB": 0.35}
	if check(io.Discard, base, fresh, guarded, 0.20, both) {
		t.Fatal("overridden regressions still failed")
	}
	// Missing benchmarks fail regardless.
	if !check(io.Discard, base, map[string]result{}, guarded, 0.20, both) {
		t.Fatal("missing fresh results passed")
	}
}

// TestParseAllocsPerOp reads allocs/op beside ns/op from result lines
// that test2json split after the benchmark name, and marks a run
// without -benchmem as having no count.
func TestParseAllocsPerOp(t *testing.T) {
	cases := []struct {
		name, output string
		want         result
	}{
		{"benchmem", "  8938434\t       125.3 ns/op\t       0 B/op\t       0 allocs/op\n", result{ns: 125.3, allocs: 0}},
		{"macro", "      27\t  64143494 ns/op\t10637685 B/op\t  172303 allocs/op\n", result{ns: 64143494, allocs: 172303}},
		{"few", "12286772\t        84.43 ns/op\t       0 B/op\t       3 allocs/op\n", result{ns: 84.43, allocs: 3}},
		{"no-benchmem", "  2410411\t       498.8 ns/op\n", result{ns: 498.8, allocs: -1}},
	}
	for _, tc := range cases {
		var in strings.Builder
		for _, out := range []string{"BenchmarkX     \t", tc.output} {
			line, _ := json.Marshal(event{Action: "output", Test: "BenchmarkX", Output: out})
			in.Write(append(line, '\n'))
		}
		got, err := parseBench(strings.NewReader(in.String()))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got["BenchmarkX"] != tc.want {
			t.Errorf("%s: parsed %+v, want %+v", tc.name, got["BenchmarkX"], tc.want)
		}
	}
	bad := `{"Action":"output","Test":"B","Output":"1\t5 ns/op\tmany allocs/op\n"}` + "\n"
	if _, err := parseBench(strings.NewReader(bad)); err == nil {
		t.Fatal("unparseable allocs/op accepted")
	}
}

// TestParseMedianOfSamples feeds five -count samples of one benchmark
// in the shape go test -json writes them: only the first event carries
// Test, later samples lead with the "BenchmarkX-2" column, and one of
// them arrives split across two events. The first sample is a far
// outlier in both columns; the parsed result is the median, so the
// outlier neither fails nor passes the gate by itself.
func TestParseMedianOfSamples(t *testing.T) {
	events := []event{
		{Action: "output", Test: "BenchmarkX", Output: "BenchmarkX-2   \t  100\t   950.0 ns/op\t   0 B/op\t 4000 allocs/op\n"},
		{Action: "output", Output: "BenchmarkX-2   \t  100\t    99.0 ns/op\t   0 B/op\t   40 allocs/op\n"},
		{Action: "output", Output: "BenchmarkX-2   \t  100\t   101.0 ns/op\t   0 B/op\t   40 allocs/op\n"},
		{Action: "output", Output: "BenchmarkX-2   \t"},
		{Action: "output", Output: "  100\t   100.0 ns/op\t   0 B/op\t   41 allocs/op\n"},
		{Action: "output", Output: "BenchmarkX-2   \t  100\t   102.0 ns/op\t   0 B/op\t   40 allocs/op\n"},
		{Action: "output", Test: "BenchmarkY", Output: "BenchmarkY-2   \t  100\t     7.0 ns/op\t   0 B/op\t    0 allocs/op\n"},
	}
	var in strings.Builder
	for _, ev := range events {
		line, _ := json.Marshal(ev)
		in.Write(append(line, '\n'))
	}
	got, err := parseBench(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	if want := (result{ns: 101, allocs: 40}); got["BenchmarkX"] != want {
		t.Fatalf("parsed %+v, want the median %+v", got["BenchmarkX"], want)
	}
	if want := (result{ns: 7, allocs: 0}); got["BenchmarkY"] != want || len(got) != 2 {
		t.Fatalf("parsed %+v, want only BenchmarkX and BenchmarkY %+v", got, want)
	}
	base := map[string]result{"BenchmarkX": {ns: 100, allocs: 40}}
	if check(io.Discard, base, got, []string{"BenchmarkX"}, 0.20, nil) {
		t.Error("one outlier sample failed the ns/op gate")
	}
	if checkAllocs(io.Discard, base, got, []string{"BenchmarkX"}) {
		t.Error("one outlier sample failed the allocs/op gate")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
}

func TestCheckAllocs(t *testing.T) {
	cases := []struct {
		name        string
		base, fresh float64
		fail        bool
	}{
		{"zero stays zero", 0, 0, false},
		{"zero grows", 0, 1, true},
		{"equal", 42700, 42700, false},
		{"within slack", 42700, 43554, false},
		{"beyond slack", 42700, 43555, true},
		{"fewer", 42700, 30000, false},
		{"missing from fresh run", 10, -1, true},
		{"missing from baseline", -1, 10, true},
	}
	for _, tc := range cases {
		base := map[string]result{"BenchmarkA": {ns: 1, allocs: tc.base}}
		fresh := map[string]result{"BenchmarkA": {ns: 1, allocs: tc.fresh}}
		var out strings.Builder
		if got := checkAllocs(&out, base, fresh, []string{"BenchmarkA"}); got != tc.fail {
			t.Errorf("%s: failed = %v, want %v\n%s", tc.name, got, tc.fail, out.String())
		}
	}
	if !checkAllocs(io.Discard, map[string]result{}, map[string]result{}, []string{"BenchmarkA"}) {
		t.Fatal("benchmark absent from both runs passed")
	}
}
