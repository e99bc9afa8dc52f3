package experiments

import (
	"fmt"

	"bps/internal/core"
	"bps/internal/obs"
	"bps/internal/sim"
	"bps/internal/testbed"
	"bps/internal/workload"
)

func newPinnedFilesEnv(e *sim.Engine, spec testbed.ClusterSpec, filePerProc int64) (*workload.ClusterEnv, error) {
	if spec.Clients > spec.Servers {
		return nil, fmt.Errorf("experiments: pure-concurrency env needs a server per client (%d > %d)",
			spec.Clients, spec.Servers)
	}
	return testbed.NewPinnedFilesEnv(e, spec, filePerProc)
}

// runOne executes one workload run on a fresh engine seeded with seed
// and converts the result into a sweep point. It touches no suite state,
// so the run scheduler can call it from any worker goroutine; when
// observe is non-nil the run gets its own observer, returned alongside
// the point.
func runOne(seed int64, label string, observe *obs.Options, build buildFunc) (Point, *Observation, error) {
	e := sim.NewEngine(seed)
	var ob *obs.Observer
	if observe != nil {
		ob = obs.Attach(e, *observe)
	}
	env, w, err := build(e)
	if err != nil {
		return Point{}, nil, fmt.Errorf("run %s: %w", label, err)
	}
	res, err := w.Run(e, env)
	if err != nil {
		return Point{}, nil, fmt.Errorf("run %s: %w", label, err)
	}
	e.Shutdown() // unwind server daemons so sweeps don't accumulate goroutines
	pt := Point{
		Label:   label,
		Metrics: core.Compute(res.Trace, res.Moved, res.ExecTime),
		Errors:  res.Errors,
	}
	var o *Observation
	if ob != nil {
		ob.FinishRun(res.Trace.Records())
		pt.Blame = ob.Attribution().Dominant()
		o = &Observation{Label: label, Obs: ob}
	}
	return pt, o, nil
}
