package experiments

import (
	"fmt"

	"bps/internal/core"
	"bps/internal/obs"
	"bps/internal/sim"
	"bps/internal/testbed"
	"bps/internal/workload"
)

// Aliases keeping the experiment code close to the paper's vocabulary;
// the actual models live in internal/testbed.
const (
	hdd = testbed.HDD
	ssd = testbed.SSD
)

type storageKind = testbed.Media

type clusterSpec = testbed.ClusterSpec

func newLocalEnv(e *sim.Engine, k storageKind, nfiles int, fileSize int64) (*workload.LocalEnv, error) {
	return testbed.NewLocalEnv(e, k, nfiles, fileSize)
}

func newSharedFileEnv(e *sim.Engine, spec clusterSpec, fileSize int64) (*workload.ClusterEnv, error) {
	return testbed.NewSharedFileEnv(e, spec, fileSize)
}

func newMetaFilesEnv(e *sim.Engine, spec clusterSpec, filesPerProc int, fileSize int64) (*workload.ClusterEnv, error) {
	return testbed.NewMetaFilesEnv(e, spec, filesPerProc, fileSize)
}

func newPinnedFilesEnv(e *sim.Engine, spec clusterSpec, filePerProc int64) (*workload.ClusterEnv, error) {
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
		ob.FinishSampling()
		for _, r := range res.Trace.Records() {
			ob.AddAppRecord(r.PID, r.Blocks, r.Start, r.End)
		}
		pt.Blame = ob.Attribution().Dominant()
		o = &Observation{Label: label, Obs: ob}
	}
	return pt, o, nil
}
