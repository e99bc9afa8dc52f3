package workload

import (
	"fmt"

	"bps/internal/middleware"
	"bps/internal/sim"
	"bps/internal/trace"
)

// MetaRead is the metadata-heavy phase of the IO500-style suite: each
// process opens FilesPerProcess small files through the metadata server
// (paying the MDS RPC round trip and service queueing per open) and
// reads each one fully in RecordSize records. With files this small the
// MDS path dominates, so the workload exercises exactly the regime the
// mdtest-style phases of IO500 probe — throughput limited by metadata
// operations, not data movement.
//
// MetaRead requires a *ClusterEnv: opens are metadata-server operations
// and only the pfs client exposes them. The env's files must be named
// MetaFileName(pid, i) — testbed.NewMetaFilesEnv creates a matching
// population.
type MetaRead struct {
	Label           string
	Processes       int
	FilesPerProcess int
	RecordSize      int64

	// FirstPID offsets the trace process IDs (see SeqRead.FirstPID).
	FirstPID int64
}

// MetaFileName returns the name of process pid's i-th file — the
// contract between MetaRead and the env that preallocates its files.
func MetaFileName(pid, i int) string {
	return fmt.Sprintf("meta.p%d.%d", pid, i)
}

// Start implements Starter.
func (w MetaRead) Start(e *sim.Engine, env Env) (*Pending, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	cenv, ok := env.(*ClusterEnv)
	if !ok {
		return nil, fmt.Errorf("workload %q: MetaRead needs a *ClusterEnv (opens are MDS operations)", w.Label)
	}
	pend := newPending(e, w.Label, env, w.Processes)
	for pid := 0; pid < w.Processes; pid++ {
		pid := pid
		col := trace.NewCollector(w.FirstPID + int64(pid))
		pend.collectors[pid] = col
		cl := cenv.Clients[pid%len(cenv.Clients)]
		e.Spawn(fmt.Sprintf("%s.p%d", w.Label, pid), pend.track(func(p *sim.Proc) {
			for i := 0; i < w.FilesPerProcess; i++ {
				f, err := cl.Open(p, MetaFileName(pid, i))
				if err != nil {
					pend.errs[pid]++
					continue
				}
				io := middleware.NewPOSIX(middleware.NewTarget(cl.Layer(f), f.Name(), f.Size()), col)
				for off := int64(0); off < f.Size(); off += w.RecordSize {
					n := w.RecordSize
					if off+n > f.Size() {
						n = f.Size() - off
					}
					if err := io.Read(p, off, n); err != nil {
						pend.errs[pid]++
					}
				}
			}
		}))
	}
	return pend, nil
}

// Run implements Runner.
func (w MetaRead) Run(e *sim.Engine, env Env) (Result, error) {
	return runToCompletion(w, e, env)
}

func (w MetaRead) validate() error {
	switch {
	case w.Processes < 1:
		return fmt.Errorf("workload %q: Processes %d < 1", w.Label, w.Processes)
	case w.FilesPerProcess < 1:
		return fmt.Errorf("workload %q: FilesPerProcess %d < 1", w.Label, w.FilesPerProcess)
	case w.RecordSize <= 0:
		return fmt.Errorf("workload %q: RecordSize %d <= 0", w.Label, w.RecordSize)
	}
	return nil
}
