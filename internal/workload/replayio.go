package workload

import (
	"fmt"
	"sort"

	"bps/internal/middleware"
	"bps/internal/sim"
	"bps/internal/trace"
)

// Access is one offset-aware recorded I/O: the raw material of an
// ingested real-world log (a Darshan-style read/write segment), richer
// than the paper's 32-byte record because it carries the operation, the
// file offset, and the target file slot. ReplayIO re-issues accesses
// with full placement fidelity, where Replay (offset-less records) has
// to lay accesses out sequentially.
type Access struct {
	// PID is the originating process (the log's rank).
	PID int64

	// Slot indexes the env file the access targets: ingestion assigns
	// one slot per distinct (rank, file) pair and the replay env creates
	// one file per slot.
	Slot int

	// Write distinguishes the operation (false = read).
	Write bool

	// Off and Size are the recorded file range in bytes.
	Off, Size int64

	// Start and End are the recorded access interval, normalized so the
	// log's earliest access starts at 0.
	Start, End sim.Time
}

// Blocks returns the application-required size in 512-byte blocks.
func (a Access) Blocks() int64 { return trace.BlocksOf(a.Size) }

// ReplayIO re-issues offset-aware accesses against a simulated stack.
// Each recorded process becomes one simulation process that issues its
// accesses in original order at their original offsets, no earlier than
// their recorded start times (preserving think time) but otherwise as
// fast as the new stack allows — the same pacing contract as Replay,
// plus placement.
type ReplayIO struct {
	Label    string
	Accesses []Access
}

// Slots returns the number of env file slots the accesses reference
// (max slot + 1), which sizes the env a replay needs.
func (w ReplayIO) Slots() int {
	n := 0
	for _, a := range w.Accesses {
		if a.Slot+1 > n {
			n = a.Slot + 1
		}
	}
	return n
}

// SlotExtents returns the per-slot file size the replay needs: the
// largest end offset any access reaches in that slot.
func (w ReplayIO) SlotExtents() []int64 {
	ext := make([]int64, w.Slots())
	for _, a := range w.Accesses {
		if end := a.Off + a.Size; end > ext[a.Slot] {
			ext[a.Slot] = end
		}
	}
	return ext
}

// Start implements Starter.
func (w ReplayIO) Start(e *sim.Engine, env Env) (*Pending, error) {
	if len(w.Accesses) == 0 {
		return nil, fmt.Errorf("workload %q: no accesses", w.Label)
	}
	perPID := make(map[int64][]Access)
	var pids []int64
	for _, a := range w.Accesses {
		if a.Size <= 0 {
			return nil, fmt.Errorf("workload %q: access with size %d", w.Label, a.Size)
		}
		if a.Off < 0 || a.Slot < 0 {
			return nil, fmt.Errorf("workload %q: access with offset %d slot %d", w.Label, a.Off, a.Slot)
		}
		if _, ok := perPID[a.PID]; !ok {
			pids = append(pids, a.PID)
		}
		perPID[a.PID] = append(perPID[a.PID], a)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		accs := perPID[pid]
		sort.SliceStable(accs, func(i, j int) bool { return accs[i].Start < accs[j].Start })
	}

	base := w.Accesses[0].Start
	for _, a := range w.Accesses {
		if a.Start < base {
			base = a.Start
		}
	}

	pend := newPending(e, w.Label, env, len(pids))
	for slot, pid := range pids {
		slot, pid := slot, pid
		accs := perPID[pid]
		col := trace.NewCollector(pid)
		pend.collectors[slot] = col
		start := e.Now()
		e.Spawn(fmt.Sprintf("%s.pid%d", w.Label, pid), pend.track(func(p *sim.Proc) {
			// One POSIX wrapper per file slot the process touches, built
			// lazily; all share the process's collector.
			ios := make(map[int]*middleware.POSIX)
			for _, a := range accs {
				io, ok := ios[a.Slot]
				if !ok {
					io = middleware.NewPOSIX(env.Target(a.Slot), col)
					ios[a.Slot] = io
				}
				issueAt := start + (a.Start - base)
				if p.Now() < issueAt {
					p.Sleep(issueAt - p.Now())
				}
				var err error
				if a.Write {
					err = io.Write(p, a.Off, a.Size)
				} else {
					err = io.Read(p, a.Off, a.Size)
				}
				if err != nil {
					pend.errs[slot]++
				}
			}
		}))
	}
	return pend, nil
}

// Run implements Runner.
func (w ReplayIO) Run(e *sim.Engine, env Env) (Result, error) {
	return runToCompletion(w, e, env)
}
