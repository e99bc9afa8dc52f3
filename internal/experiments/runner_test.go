package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bps/internal/obs"
	"bps/internal/sim"
)

// TestDeriveSeedPinned pins the derived engine seed of one point per
// sweep. These values are load-bearing: every figure's measurements are
// a function of them, so an accidental change to the derivation (hash,
// framing, byte order) shows up here before it silently shifts every
// reproduced number.
func TestDeriveSeedPinned(t *testing.T) {
	pinned := map[[2]string]int64{
		{"set1", "local-hdd"}:  -1083276964539255126,
		{"set1", "pvfs-8s"}:    5539543175295217317,
		{"set2-hdd", "4KB"}:    4562652203324125485,
		{"set2-ssd", "8MB"}:    2875436787786197841,
		{"set3a", "1p"}:        -6779004637803703974,
		{"set3b", "32p"}:       528372403079536243,
		{"set4", "gap4096B"}:   8806648601780494330,
		{"ext1", "off"}:        -4087437439217893992,
		{"ext2", "64KB"}:       -5866257249286401077,
		{"ext3", "collective"}: 1002652676135534745,
	}
	for key, want := range pinned {
		if got := DeriveSeed(42, key[0], key[1]); got != want {
			t.Errorf("DeriveSeed(42, %q, %q) = %d, want %d", key[0], key[1], got, want)
		}
	}
}

// TestDeriveSeedProperties verifies the derivation is a pure function of
// its inputs, sensitive to each of them, and unambiguous about the
// (sweepID, label) split.
func TestDeriveSeedProperties(t *testing.T) {
	a := DeriveSeed(42, "set1", "local-hdd")
	if b := DeriveSeed(42, "set1", "local-hdd"); b != a {
		t.Fatalf("not pure: %d vs %d", a, b)
	}
	if b := DeriveSeed(43, "set1", "local-hdd"); b == a {
		t.Error("insensitive to base seed")
	}
	if b := DeriveSeed(42, "set2", "local-hdd"); b == a {
		t.Error("insensitive to sweep ID")
	}
	if b := DeriveSeed(42, "set1", "local-ssd"); b == a {
		t.Error("insensitive to label")
	}
	// The explicit separator keeps ("ab","c") and ("a","bc") distinct.
	if DeriveSeed(42, "ab", "c") == DeriveSeed(42, "a", "bc") {
		t.Error("(sweepID, label) framing is ambiguous")
	}
}

// TestForEach exercises the worker pool: full coverage of the index
// range for worker counts below, at, and above n, and lowest-index error
// selection regardless of completion order.
func TestForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		var calls atomic.Int64
		seen := make([]atomic.Bool, 33)
		err := ForEach(workers, len(seen), func(i int) error {
			calls.Add(1)
			if seen[i].Swap(true) {
				return fmt.Errorf("index %d ran twice", i)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if calls.Load() != int64(len(seen)) {
			t.Fatalf("workers=%d: %d calls, want %d", workers, calls.Load(), len(seen))
		}
	}
	if err := ForEach(4, 0, func(int) error { return errors.New("boom") }); err != nil {
		t.Fatalf("n=0 ran a job: %v", err)
	}
	errLow, errHigh := errors.New("low"), errors.New("high")
	err := ForEach(8, 16, func(i int) error {
		switch i {
		case 3:
			return errLow
		case 12:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("error = %v, want lowest-index error %v", err, errLow)
	}
}

// TestRunSweepDuplicateLabel verifies the guard on the seed-derivation
// keyspace: two points with the same label would silently share a seed.
func TestRunSweepDuplicateLabel(t *testing.T) {
	s := NewSuite(testParams())
	_, err := s.runSweep("dup", []runSpec{{label: "x"}, {label: "x"}})
	if err == nil || !strings.Contains(err.Error(), "duplicate point label") {
		t.Fatalf("err = %v, want duplicate-label error", err)
	}
}

// obsSummary flattens an observation's registry (counters, histogram
// statistics, probe values) into a comparable string.
func obsSummary(o *Observation) string {
	if o == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "label=%s\n", o.Label)
	reg := o.Obs.Registry()
	for _, c := range reg.Counters() {
		fmt.Fprintf(&b, "counter %s=%d\n", c.Name(), c.Value())
	}
	for _, h := range reg.Histograms() {
		fmt.Fprintf(&b, "hist %s n=%d sum=%d max=%d\n", h.Name(), h.Count(), h.Sum(), h.Max())
	}
	for _, p := range reg.Probes() {
		fmt.Fprintf(&b, "probe %s=%g\n", p.Name, p.Fn())
	}
	return b.String()
}

// TestParallelMatchesSequential is the determinism contract test: the
// full tiny-scale suite (all paper figures and extensions, with
// observability attached) run with one worker and with eight workers
// must produce deeply equal Figures, CC tables, and per-run observation
// summaries. Run it under -race to validate the worker pool's memory
// discipline.
func TestParallelMatchesSequential(t *testing.T) {
	build := func(parallel int) *Suite {
		p := Params{Scale: 1.0 / 512, Seed: 42, Parallel: parallel}
		s := NewSuite(p)
		s.SetObserve(&obs.Options{SampleEvery: sim.Millisecond})
		return s
	}
	seq, par := build(1), build(8)
	ids := append(append([]string{}, FigureIDs...), ExtensionIDs...)
	for _, id := range ids {
		fs, err := seq.Figure(id)
		if err != nil {
			t.Fatalf("sequential %s: %v", id, err)
		}
		fp, err := par.Figure(id)
		if err != nil {
			t.Fatalf("parallel %s: %v", id, err)
		}
		if !reflect.DeepEqual(fs.Points, fp.Points) {
			t.Errorf("%s: points differ between parallel=1 and parallel=8", id)
		}
		if !reflect.DeepEqual(fs.CC, fp.CC) {
			t.Errorf("%s: CC tables differ between parallel=1 and parallel=8", id)
		}
		if !reflect.DeepEqual(fs, fp) {
			t.Errorf("%s: figures differ between parallel=1 and parallel=8", id)
		}
		so, po := obsSummary(seq.LastObservation()), obsSummary(par.LastObservation())
		if so != po {
			t.Errorf("%s: observation summaries differ:\n--- parallel=1\n%s--- parallel=8\n%s", id, so, po)
		}
	}
}

// TestOnlyFinalPointTraces: with Chrome tracing on, only a sweep's
// final point, the one LastObservation keeps, collects trace events;
// every point still runs its sampler and Tick. It covers a runSweep
// figure and the qos sweep.
func TestOnlyFinalPointTraces(t *testing.T) {
	for _, id := range []string{"fig4", QoSFigureID} {
		var mu sync.Mutex
		ticked := make(map[*obs.Observer]bool)
		s := NewSuite(Params{Scale: 1.0 / 512, Seed: 42, Parallel: 2})
		s.SetObserve(&obs.Options{ChromeTrace: true, QueueCounters: true, SampleEvery: sim.Millisecond,
			Tick: func(_ sim.Time, o *obs.Observer) {
				mu.Lock()
				ticked[o] = true
				mu.Unlock()
			}})
		fig, err := s.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		last := s.LastObservation()
		if last == nil || last.Obs.TraceBuffer() == nil {
			t.Fatalf("%s: the final point holds no trace buffer", id)
		}
		if len(ticked) != len(fig.Points) {
			t.Errorf("%s: %d observers ticked, want one per point (%d)", id, len(ticked), len(fig.Points))
		}
		for o := range ticked {
			if o != last.Obs && o.TraceBuffer() != nil {
				t.Errorf("%s: an earlier point's observer holds a trace buffer", id)
			}
		}
	}
}

// TestRobustnessParallelMatchesSequential extends the contract to the
// robustness harness, whose per-seed suites also fan out.
func TestRobustnessParallelMatchesSequential(t *testing.T) {
	base := Params{Scale: 1.0 / 512, Seed: 42}
	seqP, parP := base, base
	seqP.Parallel = 1
	parP.Parallel = 8
	rs, err := RunRobustness(seqP, "fig5", 3)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := RunRobustness(parP, "fig5", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs, rp) {
		t.Errorf("robustness differs:\nseq: %+v\npar: %+v", rs, rp)
	}
}
