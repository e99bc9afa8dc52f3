// Command benchguard is the CI bench-regression smoke: it re-runs the
// engine benchmarks, compares each ns/op against the committed
// test2json baseline (BENCH_sim.json), and fails when a guarded
// benchmark regresses beyond the threshold.
//
// Usage:
//
//	benchguard [-baseline BENCH_sim.json] [-fresh file.json] [-threshold 0.20] [-bench BenchmarkEngineEventDispatch]
//
// Without -fresh it runs the benchmarks itself (go test -json on
// ./internal/sim/..., ./internal/qos, ./internal/stats,
// ./internal/roofline, and ./cmd/bpsd) and writes their
// output to BENCH_new.json — never to the baseline file, so the
// committed numbers stay the reference. -bench may be repeated; the
// default guards the event-dispatch hot paths, the QoS admission
// middleware, the bpsd job-submit handler, and the statistics and
// roofline hot paths (bootstrap resampling, ceiling evaluation), since
// macro benchmarks are too noisy for a shared runner.
//
// -tolerances names a JSON override file so an individual benchmark can
// carry a documented per-benchmark allowance instead of loosening the
// global -threshold:
//
//	{"comment": "why", "tolerances": {"BenchmarkName": 0.35}}
//
// The default file (BENCH_tolerances.json) may be absent; a -tolerances
// path given explicitly must exist.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

type event struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// parseNsPerOp extracts "<name> → ns/op" from a test2json stream. A
// benchmark's result line arrives as an output event carrying the
// iteration count and "<float> ns/op" columns.
func parseNsPerOp(r io.Reader) (map[string]float64, error) {
	got := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("bad test2json line %q: %w", line, err)
		}
		if ev.Action != "output" || ev.Test == "" || !strings.Contains(ev.Output, "ns/op") {
			continue
		}
		fields := strings.Fields(ev.Output)
		for i, f := range fields {
			if f == "ns/op" && i > 0 {
				v, err := strconv.ParseFloat(fields[i-1], 64)
				if err != nil {
					return nil, fmt.Errorf("%s: bad ns/op %q", ev.Test, fields[i-1])
				}
				got[ev.Test] = v
			}
		}
	}
	return got, sc.Err()
}

func parseFile(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseNsPerOp(f)
}

// runFresh executes the benchmarks and tees the test2json stream to
// out so a failing run leaves its evidence behind.
func runFresh(out string) (map[string]float64, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", ".", "-benchmem", "-json", "./internal/sim/...", "./internal/qos", "./internal/stats", "./internal/roofline", "./cmd/bpsd")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	got, perr := parseNsPerOp(io.TeeReader(stdout, f))
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("benchmark run failed: %w", err)
	}
	return got, perr
}

type benchList []string

func (b *benchList) String() string     { return strings.Join(*b, ",") }
func (b *benchList) Set(v string) error { *b = append(*b, v); return nil }

// toleranceFile is the -tolerances schema: per-benchmark regression
// allowances that override the global threshold, plus a free-form
// comment documenting why each allowance exists.
type toleranceFile struct {
	Comment    string             `json:"comment"`
	Tolerances map[string]float64 `json:"tolerances"`
}

// loadTolerances reads the override file. A missing file is fine when
// the path is the default (the repo may simply have no overrides);
// explicitly requested files must exist. Non-positive overrides are
// rejected — a zero tolerance would fail on measurement noise.
func loadTolerances(path string, explicit bool) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) && !explicit {
			return nil, nil
		}
		return nil, err
	}
	var tf toleranceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for name, tol := range tf.Tolerances {
		if tol <= 0 {
			return nil, fmt.Errorf("%s: tolerance for %s is %g, must be positive", path, name, tol)
		}
	}
	return tf.Tolerances, nil
}

// check compares fresh against base for every guarded benchmark and
// reports to w; it returns true when any guard failed. tolerances
// override threshold per benchmark.
func check(w io.Writer, base, fresh map[string]float64, guarded []string, threshold float64, tolerances map[string]float64) bool {
	failed := false
	for _, name := range guarded {
		b, ok := base[name]
		if !ok || b <= 0 {
			fmt.Fprintf(os.Stderr, "benchguard: %s missing from baseline\n", name)
			failed = true
			continue
		}
		f, ok := fresh[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: %s missing from fresh run\n", name)
			failed = true
			continue
		}
		tol, note := threshold, ""
		if override, ok := tolerances[name]; ok {
			tol, note = override, fmt.Sprintf(" (tolerance %+.0f%%)", 100*override)
		}
		delta := (f - b) / b
		status := "ok"
		if delta > tol {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-32s baseline %10.2f ns/op   fresh %10.2f ns/op   %+6.1f%%   %s%s\n",
			name, b, f, 100*delta, status, note)
	}
	return failed
}

func main() {
	baseline := flag.String("baseline", "BENCH_sim.json", "committed test2json baseline")
	freshPath := flag.String("fresh", "", "pre-recorded fresh run to compare (default: run benchmarks now)")
	freshOut := flag.String("fresh-out", "BENCH_new.json", "where a live run records its test2json output")
	threshold := flag.Float64("threshold", 0.20, "max tolerated ns/op regression (fraction)")
	tolPath := flag.String("tolerances", "BENCH_tolerances.json", "per-benchmark tolerance override file (JSON)")
	var guarded benchList
	flag.Var(&guarded, "bench", "benchmark to guard (repeatable; default BenchmarkEngineEventDispatch)")
	flag.Parse()
	if len(guarded) == 0 {
		guarded = benchList{
			"BenchmarkEngineEventDispatch", "BenchmarkEngineCalendarDepth100k",
			"BenchmarkQoSServeDisabled", "BenchmarkQoSServeEnabled", "BenchmarkQoSAdmitThrottled",
			"BenchmarkJobsSubmit",
			"BenchmarkBootstrapDist", "BenchmarkRooflineCeiling",
		}
	}
	tolExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "tolerances" {
			tolExplicit = true
		}
	})

	tolerances, err := loadTolerances(*tolPath, tolExplicit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: tolerances: %v\n", err)
		os.Exit(2)
	}
	base, err := parseFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: baseline: %v\n", err)
		os.Exit(2)
	}
	var fresh map[string]float64
	if *freshPath != "" {
		fresh, err = parseFile(*freshPath)
	} else {
		fresh, err = runFresh(*freshOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: fresh run: %v\n", err)
		os.Exit(2)
	}

	if check(os.Stdout, base, fresh, guarded, *threshold, tolerances) {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL (threshold %+.0f%%)\n", 100**threshold)
		os.Exit(1)
	}
	fmt.Printf("benchguard: ok (threshold %+.0f%%)\n", 100**threshold)
}
