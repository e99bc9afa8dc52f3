package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"bps/internal/obs"
	"bps/internal/sim"
	"bps/internal/stats"
	"bps/internal/workload"
)

// This file is the suite's run scheduler: every sweep is described as a
// list of labelled run specs and executed by a worker pool that fans the
// runs out across goroutines, one private sim.Engine per run.
//
// Determinism contract: parallel output is bit-identical to sequential.
// Three properties make that hold:
//
//  1. Each run's engine seed is DeriveSeed(Params.Seed, sweep ID, point
//     label) — a pure function of stable identifiers, never of loop
//     index, submission order, or completion order.
//  2. Each run owns every piece of mutable state it touches: its engine,
//     its simulated stack, and (when the suite observes) its own
//     obs.Observer attached to that engine alone.
//  3. Results land in a slice indexed by sweep position and are read
//     only after every worker has finished, so assembly order is the
//     sweep order regardless of which run completed first.

// buildFunc constructs one run's environment and workload on a fresh
// engine. It must be safe to call from any worker goroutine: everything
// it closes over is read-only after the sweep is described.
type buildFunc func(e *sim.Engine) (workload.Env, workload.Runner, error)

// runSpec is one sweep point awaiting execution.
type runSpec struct {
	label string
	build buildFunc
}

// DeriveSeed returns the engine seed for one sweep point as a pure
// function of (base seed, sweep ID, point label). Reordering a sweep,
// inserting new points, or running points concurrently can therefore
// never change an existing run's result — the fragility of deriving
// seeds from loop-iteration order is structurally gone. The derivation
// itself is stats.DeriveSeed, shared with the bootstrap PRNG seeding,
// so one pinned-golden test covers every consumer.
func DeriveSeed(base int64, sweepID, label string) int64 {
	return stats.DeriveSeed(base, sweepID, label)
}

// ForEach runs job(i) for every i in [0, n) across at most workers
// goroutines (workers <= 0 means GOMAXPROCS) and returns the
// lowest-index error once every job has finished. Indices are handed
// out dynamically, so which goroutine runs which job is scheduling
// noise — jobs must depend only on their index, never on execution
// order, which is exactly the runner's determinism contract.
func ForEach(workers, n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			errs[i] = job(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = job(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runSweep executes one named sweep's points across the suite's worker
// budget (Params.Parallel) and reassembles the results in sweep order.
// Labels must be unique within a sweep: they key the seed derivation.
//
// When the suite observes, every run carries its own observer and the
// suite's last observation becomes the final point's — the same
// semantics a sequential pass over the sweep had. Only that point's
// observation is kept, and only it collects trace events (see
// pointObserve).
func (s *Suite) runSweep(sweepID string, specs []runSpec) ([]Point, error) {
	seen := make(map[string]bool, len(specs))
	for _, sp := range specs {
		if seen[sp.label] {
			return nil, fmt.Errorf("experiments: sweep %s: duplicate point label %q would collide in seed derivation", sweepID, sp.label)
		}
		seen[sp.label] = true
	}
	points := make([]Point, len(specs))
	var last *Observation
	err := ForEach(s.params.Parallel, len(specs), func(i int) error {
		sp := specs[i]
		final := i == len(specs)-1
		pt, ob, err := runOne(DeriveSeed(s.params.Seed, sweepID, sp.label), sp.label, s.pointObserve(final), sp.build)
		if err != nil {
			return err
		}
		points[i] = pt
		if final {
			last = ob
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if last != nil {
		s.lastObs = last
	}
	return points, nil
}

// pointObserve returns the observer options of one sweep point. Only a
// sweep's final point can become LastObservation, the one run an export
// writes, so only it collects Chrome trace events and queue counters;
// every point keeps attribution, windows, the sampler and Tick, so
// blame and live serving see every run.
func (s *Suite) pointObserve(final bool) *obs.Options {
	if s.observe == nil || final {
		return s.observe
	}
	o := *s.observe
	o.ChromeTrace, o.QueueCounters = false, false
	return &o
}
