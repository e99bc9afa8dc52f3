// Command perfbench is the repository benchmark. It runs one workload for
// a fixed wall-clock budget, checks every pass's output, and prints the
// end-to-end metrics (untraced runs) or the per-layer metrics (traced
// runs) as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (normally through run.py, which builds this binary and bpsd):
//
//	perfbench --workload paper|observed|livemem|bpsd --seed N --seconds S --trace 0|1 \
//	    [--bpsd PATH] [--out DIR]
//
// Every input is generated from --seed. Every number is taken from
// outside the program under test: wall and CPU clocks, the Go runtime's
// allocation counters, /proc, and, in the traced pass, wrappers this
// package puts around the program's public seams.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	bpsd    string // path to the bpsd binary (bpsd workload)
	out     string // directory for span dumps
}

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// The end-to-end and per-layer metrics, in BENCHMARK.json's order. A
// workload sets the metrics it measures; a per-layer metric of a layer
// the workload bypasses reads 0, while every end-to-end metric must be
// measured on every workload.
var endToEnd, perLayer []specMetric

// modelJSON is the benchmark's model: per workload what it exercises
// and bypasses, per per-layer metric which end-to-end metric it should
// move on which workload.
//
//go:embed model.json
var modelJSON []byte

// targets maps each per-layer metric to the end-to-end metrics and
// workloads it should move, from the model; unmeasured says which
// metrics read 0 where a workload does run their layer, and why.
var (
	targets    map[string][]string
	unmeasured map[string]string
)

// loadSpec reads the metric lists from BENCHMARK.json and checks that
// the model names every per-layer metric.
func loadSpec(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var model struct {
		PerLayer map[string]struct {
			Moves []string `json:"moves"`
			Not   []string `json:"not"`
		} `json:"per_layer"`
		Unmeasured map[string]string `json:"unmeasured"`
	}
	if err := json.Unmarshal(modelJSON, &model); err != nil {
		return fmt.Errorf("model.json: %w", err)
	}
	endToEnd, perLayer, unmeasured = spec.EndToEnd, spec.PerLayer, model.Unmeasured
	targets = make(map[string][]string)
	for _, m := range perLayer {
		e, ok := model.PerLayer[m.Name]
		if !ok {
			return fmt.Errorf("model.json has no entry for per-layer metric %s", m.Name)
		}
		targets[m.Name] = e.Moves
		if len(e.Not) > 0 {
			targets[m.Name] = append(targets[m.Name], "no change on "+strings.Join(e.Not, ", "))
		}
	}
	return nil
}

// outcome is what a workload run reports back: its request counts and
// whichever metrics it measured.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string // failed output checks, printed to stderr
	values    map[string]float64

	// passes and latSamples are the base counts of the end-to-end
	// medians and percentiles; table holds the traced pass's per-layer
	// rows. Both are printed, not returned as metrics.
	passes     int
	latSamples int
	table      []string
}

func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, v float64) {
	if o.values == nil {
		o.values = make(map[string]float64)
	}
	o.values[name] = v
}

var workloads = map[string]func(config) (*outcome, error){
	"paper":    runPaper,
	"observed": runObserved,
	"livemem":  runLivemem,
	"bpsd":     runBpsd,
}

func main() {
	name := flag.String("workload", "", "workload: paper, observed, livemem or bpsd")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured wall-clock budget in seconds")
	traced := flag.Int("trace", 0, "1 = traced pass printing the per-layer metrics")
	bpsdPath := flag.String("bpsd", "", "bpsd binary (bpsd workload)")
	out := flag.String("out", ".bench_build/out", "directory for span dumps")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition listing the metrics")
	flag.Parse()
	if err := loadSpec(*specPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traced == 1,
		bpsd:    *bpsdPath,
		out:     *out,
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}

	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	res := result{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(names)),
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no request was attempted")
		os.Exit(1)
	}
	for _, m := range names {
		v := o.values[m.Name]
		if !cfg.trace && !(v > 0) {
			fmt.Fprintf(os.Stderr, "perfbench: end-to-end metric %s was not measured\n", m.Name)
			res.Correct = false
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if cfg.trace {
		for _, row := range o.table {
			fmt.Println(row)
		}
	} else {
		printSummary(o)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printSummary prints the end-to-end metrics as a table.
func printSummary(o *outcome) {
	fmt.Printf("end-to-end (untraced; medians over %d passes, percentiles over %d request samples):\n",
		o.passes, o.latSamples)
	for _, m := range endToEnd {
		fmt.Printf("  %-14s %14.4f %s\n", m.Name, o.values[m.Name], m.Unit)
	}
	fmt.Printf("  requests attempted %d, failed %d (failed_share %.4f)\n",
		o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1)))
}

// median returns the middle value of xs (mean of the two middle values
// for even lengths), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of xs by the nearest-rank method;
// xs must be sorted.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
