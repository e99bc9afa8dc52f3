// Command benchguard is the CI bench-regression smoke: it re-runs the
// engine benchmarks, compares each median ns/op against the committed
// test2json baseline (BENCH_sim.json), and fails when a guarded
// benchmark regresses beyond the threshold.
//
// Usage:
//
//	benchguard [-baseline BENCH_sim.json] [-fresh file.json] [-threshold 0.20] [-bench BenchmarkEngineEventDispatch]
//
// Without -fresh it runs the benchmarks itself (go test -json -count 5
// on ./internal/sim/..., ./internal/ioreq, ./internal/qos,
// ./internal/stats, ./internal/roofline, ./internal/obs, and
// ./cmd/bpsd) and writes
// their output to BENCH_new.json — never to the baseline file, so the
// committed numbers stay the reference. `make bench` records the
// baseline with the same -count, and both sides of every comparison
// are per-benchmark medians over all recorded samples, so one noisy
// sample cannot fail or pass the gate. -bench may be repeated; the
// default guards the event-dispatch hot path, both Sleep paths (the
// in-place wake and the parked park/unpark round trip), the
// QoS admission middleware, the bpsd job-submit handler, and the
// statistics and roofline hot paths (bootstrap resampling, ceiling
// evaluation), since macro benchmarks are too noisy for a shared
// runner.
//
// Allocation counts are deterministic, so benchguard also guards
// allocs/op, whatever -bench says, on the page-cache LRU benchmarks,
// BenchmarkFigure9, the sampler pass and the bpsd job batch: a fresh
// count may exceed its baseline by at most 2%, and a zero baseline must
// stay zero.
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
	"slices"
	"strconv"
	"strings"
)

type event struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// result is one benchmark's parsed columns; allocs is -1 when the run
// did not report allocations (no -benchmem).
type result struct {
	ns, allocs float64
}

// parseBench extracts each benchmark's ns/op and allocs/op from a
// test2json stream and reduces them to per-benchmark medians. A
// benchmark's result line arrives as an output event carrying the
// iteration count and "<value> <unit>" columns; a -count run repeats it
// once per sample, and every sample is kept until the reduction.
// test2json names the benchmark (the event's Test field) only on its
// first sample, so later samples go to the benchmark the output last
// named, either by Test or by a leading "BenchmarkX-N" column that may
// arrive in an event of its own.
func parseBench(r io.Reader) (map[string]result, error) {
	samples := map[string][]result{}
	current := "" // the benchmark the output last named
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
		if ev.Action != "output" {
			continue
		}
		fields := strings.Fields(ev.Output)
		if ev.Test != "" {
			current = ev.Test
		}
		if len(fields) > 0 && strings.HasPrefix(fields[0], "Benchmark") {
			current = trimProcs(fields[0])
		}
		if current == "" || !strings.Contains(ev.Output, "ns/op") {
			continue
		}
		res := result{allocs: -1}
		for i, f := range fields {
			if i == 0 || (f != "ns/op" && f != "allocs/op") {
				continue
			}
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad %s %q", current, f, fields[i-1])
			}
			if f == "ns/op" {
				res.ns = v
			} else {
				res.allocs = v
			}
		}
		samples[current] = append(samples[current], res)
	}
	got := make(map[string]result, len(samples))
	for name, rs := range samples {
		ns := make([]float64, len(rs))
		allocs := make([]float64, len(rs))
		for i, r := range rs {
			ns[i], allocs[i] = r.ns, r.allocs
		}
		got[name] = result{ns: median(ns), allocs: median(allocs)}
	}
	return got, sc.Err()
}

// trimProcs drops the "-N" GOMAXPROCS suffix from a benchmark result
// name, leaving the name test2json reports as Test.
func trimProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// median returns the middle value of v (the mean of the middle two for
// an even count), sorting v in place.
func median(v []float64) float64 {
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func parseFile(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBench(f)
}

// runFresh executes the benchmarks and tees the test2json stream to
// out so a failing run leaves its evidence behind.
func runFresh(out string) (map[string]result, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", ".", "-benchmem", "-count", "5", "-json", "./internal/sim/...", "./internal/ioreq", "./internal/qos", "./internal/stats", "./internal/roofline", "./internal/obs", "./cmd/bpsd")
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
	got, perr := parseBench(io.TeeReader(stdout, f))
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

// check compares fresh ns/op against base for every guarded benchmark
// and reports to w; it returns true when any guard failed. tolerances
// override threshold per benchmark.
func check(w io.Writer, base, fresh map[string]result, guarded []string, threshold float64, tolerances map[string]float64) bool {
	failed := false
	for _, name := range guarded {
		b, ok := base[name]
		if !ok || b.ns <= 0 {
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
		delta := (f.ns - b.ns) / b.ns
		status := "ok"
		if delta > tol {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-32s baseline %10.2f ns/op   fresh %10.2f ns/op   %+6.1f%%   %s%s\n",
			name, b.ns, f.ns, 100*delta, status, note)
	}
	return failed
}

// allocSlack is the allocs/op growth checkAllocs tolerates: allocation
// counts repeat up to map-growth timing and the rounding of a per-op
// mean, so the slack is small and fixed.
const allocSlack = 0.02

// allocGuarded lists the benchmarks checkAllocs guards: the page-cache
// LRU hot paths, stamped and listed, which must stay allocation-free,
// the Fig. 9 macro benchmark whose allocation count they dominate, the
// healthy request path (one POSIX read through pfs), which must stay
// allocation-free, the sampler pass, which must stay allocation-free
// between registrations, and the bpsd job batch, whose count the
// per-tick publisher work sets.
var allocGuarded = []string{
	"BenchmarkLRUInsertEvict", "BenchmarkLRULookupHit", "BenchmarkLRUSequentialRuns", "BenchmarkLRUFillRuns", "BenchmarkFigure9",
	"BenchmarkHealthyAccess", "BenchmarkSamplerTick", "BenchmarkBpsdBatch",
}

// checkAllocs compares fresh allocs/op against base for every guarded
// benchmark and reports to w; it returns true when any guard failed. A
// fresh count may exceed its baseline by allocSlack, so a zero baseline
// admits no allocation.
func checkAllocs(w io.Writer, base, fresh map[string]result, guarded []string) bool {
	failed := false
	for _, name := range guarded {
		b, ok := base[name]
		if !ok || b.allocs < 0 {
			fmt.Fprintf(os.Stderr, "benchguard: %s allocs/op missing from baseline\n", name)
			failed = true
			continue
		}
		f, ok := fresh[name]
		if !ok || f.allocs < 0 {
			fmt.Fprintf(os.Stderr, "benchguard: %s allocs/op missing from fresh run\n", name)
			failed = true
			continue
		}
		status := "ok"
		if f.allocs > b.allocs*(1+allocSlack) {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-32s baseline %10.0f allocs/op fresh %10.0f allocs/op  %s\n",
			name, b.allocs, f.allocs, status)
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
			"BenchmarkProcSleep", "BenchmarkProcSleepContended", "BenchmarkResourceContention",
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
	var fresh map[string]result
	if *freshPath != "" {
		fresh, err = parseFile(*freshPath)
	} else {
		fresh, err = runFresh(*freshOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: fresh run: %v\n", err)
		os.Exit(2)
	}

	nsFailed := check(os.Stdout, base, fresh, guarded, *threshold, tolerances)
	if checkAllocs(os.Stdout, base, fresh, allocGuarded) || nsFailed {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL (threshold %+.0f%%, allocs %+.0f%%)\n", 100**threshold, 100*allocSlack)
		os.Exit(1)
	}
	fmt.Printf("benchguard: ok (threshold %+.0f%%, allocs %+.0f%%)\n", 100**threshold, 100*allocSlack)
}
