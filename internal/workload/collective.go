package workload

import (
	"fmt"

	"bps/internal/middleware"
	"bps/internal/sim"
	"bps/internal/trace"
)

// AccessMethod selects how a noncontiguous pattern is serviced.
type AccessMethod int

// The three ways ROMIO can service interleaved region lists.
const (
	// DirectAccess issues one small read per region.
	DirectAccess AccessMethod = iota

	// SievingAccess uses per-process data sieving (covering-extent reads).
	SievingAccess

	// CollectiveAccess uses two-phase collective I/O.
	CollectiveAccess
)

// String implements fmt.Stringer.
func (m AccessMethod) String() string {
	switch m {
	case DirectAccess:
		return "direct"
	case SievingAccess:
		return "sieving"
	case CollectiveAccess:
		return "collective"
	default:
		return fmt.Sprintf("AccessMethod(%d)", int(m))
	}
}

// InterleavedRead is the canonical collective-I/O pattern: Processes
// processes share one target, and process p needs regions p, p+P, p+2P,
// … of TotalRegions regions of RegionSize bytes. The Method decides how
// the middleware services it. All processes use Target(0): the pattern
// is only meaningful on a shared file.
type InterleavedRead struct {
	Label        string
	Processes    int
	TotalRegions int
	RegionSize   int64
	Method       AccessMethod

	// SieveBufSize tunes data sieving (default 4 MiB).
	SieveBufSize int64

	// Aggregators tunes collective I/O (default min(4, Processes)).
	Aggregators int
}

// RequiredBytes returns the total application-required bytes.
func (w InterleavedRead) RequiredBytes() int64 {
	return int64(w.TotalRegions) * w.RegionSize
}

// Start implements Starter.
func (w InterleavedRead) Start(e *sim.Engine, env Env) (*Pending, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	pend := newPending(e, w.Label, env, w.Processes)
	target := env.Target(0)
	var coll *middleware.Collective
	if w.Method == CollectiveAccess {
		coll = middleware.NewCollective(e, target, w.Processes, middleware.CollectiveConfig{
			Aggregators: w.Aggregators,
		})
	}
	for pid := 0; pid < w.Processes; pid++ {
		pid := pid
		col := trace.NewCollector(int64(pid))
		pend.collectors[pid] = col
		e.Spawn(fmt.Sprintf("%s.p%d", w.Label, pid), pend.track(func(p *sim.Proc) {
			var regions []middleware.Region
			for i := pid; i < w.TotalRegions; i += w.Processes {
				regions = append(regions, middleware.Region{
					Off:  int64(i) * w.RegionSize,
					Size: w.RegionSize,
				})
			}
			var err error
			switch w.Method {
			case CollectiveAccess:
				err = coll.ReadAll(p, col, regions)
			case SievingAccess:
				m := middleware.NewMPIIO(target, col, middleware.MPIIOConfig{
					DataSieving:  true,
					SieveBufSize: w.SieveBufSize,
				})
				err = m.ReadRegions(p, regions)
			default:
				m := middleware.NewMPIIO(target, col, middleware.MPIIOConfig{})
				err = m.ReadRegions(p, regions)
			}
			if err != nil {
				pend.errs[pid]++
			}
		}))
	}
	return pend, nil
}

// Run implements Runner.
func (w InterleavedRead) Run(e *sim.Engine, env Env) (Result, error) {
	return runToCompletion(w, e, env)
}

func (w InterleavedRead) validate() error {
	switch {
	case w.Processes < 1:
		return fmt.Errorf("workload %q: Processes %d < 1", w.Label, w.Processes)
	case w.TotalRegions < w.Processes:
		return fmt.Errorf("workload %q: TotalRegions %d < Processes %d", w.Label, w.TotalRegions, w.Processes)
	case w.RegionSize <= 0:
		return fmt.Errorf("workload %q: RegionSize %d <= 0", w.Label, w.RegionSize)
	}
	return nil
}
