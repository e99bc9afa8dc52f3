package workload

import (
	"fmt"
	"sort"

	"bps/internal/middleware"
	"bps/internal/sim"
	"bps/internal/trace"
)

// Replay re-issues a recorded trace against a (different) simulated
// storage stack — what-if analysis: "what would this application's trace
// have looked like on an SSD?". Each recorded process becomes one
// simulation process that issues its accesses in original order, no
// earlier than their original start times (preserving recorded think
// time) but otherwise as fast as the new stack allows. Records carry no
// file offsets (the paper's record is {pid, blocks, start, end}), so
// accesses are laid out sequentially per process — the replay preserves
// sizes, ordering, concurrency structure, and think gaps, not physical
// placement.
type Replay struct {
	Label   string
	Records []trace.Record
}

// PIDBytes returns the total required bytes per PID, which sizes the
// per-process files a replay needs.
func (w Replay) PIDBytes() map[int64]int64 {
	out := make(map[int64]int64)
	for _, r := range w.Records {
		out[r.PID] += r.Bytes()
	}
	return out
}

// Start implements Starter.
func (w Replay) Start(e *sim.Engine, env Env) (*Pending, error) {
	if len(w.Records) == 0 {
		return nil, fmt.Errorf("workload %q: empty trace", w.Label)
	}
	// Group records per PID, preserving start order.
	perPID := make(map[int64][]trace.Record)
	var pids []int64
	for _, r := range w.Records {
		if r.Blocks <= 0 {
			return nil, fmt.Errorf("workload %q: record with %d blocks", w.Label, r.Blocks)
		}
		if _, ok := perPID[r.PID]; !ok {
			pids = append(pids, r.PID)
		}
		perPID[r.PID] = append(perPID[r.PID], r)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		recs := perPID[pid]
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	}

	// Normalize so the earliest recorded start replays at simulated now.
	base := w.Records[0].Start
	for _, r := range w.Records {
		if r.Start < base {
			base = r.Start
		}
	}

	pend := newPending(e, w.Label, env, len(pids))
	for slot, pid := range pids {
		slot, pid := slot, pid
		recs := perPID[pid]
		col := trace.NewCollector(pid)
		pend.collectors[slot] = col
		target := env.Target(slot)
		start := e.Now()
		e.Spawn(fmt.Sprintf("%s.pid%d", w.Label, pid), pend.track(func(p *sim.Proc) {
			io := middleware.NewPOSIX(target, col)
			var off int64
			for _, r := range recs {
				// Respect the recorded issue time (think gaps), but never
				// wait for the recorded completion — the new stack sets
				// the pace.
				issueAt := start + (r.Start - base)
				if p.Now() < issueAt {
					p.Sleep(issueAt - p.Now())
				}
				if err := io.Read(p, off, r.Bytes()); err != nil {
					pend.errs[slot]++
				}
				off += r.Bytes()
			}
		}))
	}
	return pend, nil
}

// Run implements Runner.
func (w Replay) Run(e *sim.Engine, env Env) (Result, error) {
	return runToCompletion(w, e, env)
}
