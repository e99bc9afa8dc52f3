package workload

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"

	"bps/internal/middleware"
	"bps/internal/sim"
	"bps/internal/trace"
)

// Access is one offset-aware recorded I/O: the raw material of an
// ingested real-world log (a Darshan-style read/write segment), richer
// than the paper's 32-byte record because it carries the operation, the
// file offset, and the target file slot.
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

// RecordAccesses lays out a trace of the paper's offset-less records
// as reads a ReplayIO can issue. Each PID reads its own file slot, its
// rank in ascending PID order, back to back in its recorded start order
// (ties keep their trace order). Sizes, per-process ordering,
// concurrency structure and think gaps replay as recorded; physical
// placement is synthesized.
func RecordAccesses(recs []trace.Record) ([]Access, error) {
	if len(recs) == 0 {
		return nil, errors.New("empty trace")
	}
	slot := make(map[int64]int)
	for _, r := range recs {
		if r.Blocks <= 0 {
			return nil, fmt.Errorf("record with %d blocks", r.Blocks)
		}
		slot[r.PID] = 0
	}
	pids := slices.Sorted(maps.Keys(slot))
	for i, pid := range pids {
		slot[pid] = i
	}
	accs := make([]Access, len(recs))
	for i, r := range recs {
		accs[i] = Access{PID: r.PID, Slot: slot[r.PID], Size: r.Bytes(), Start: r.Start, End: r.End}
	}
	slices.SortStableFunc(accs, func(a, b Access) int { return cmp.Compare(a.Start, b.Start) })
	next := make([]int64, len(pids))
	for i := range accs {
		accs[i].Off = next[accs[i].Slot]
		next[accs[i].Slot] += accs[i].Size
	}
	return accs, nil
}

// Validate rejects an access stream no replay can issue: an empty one,
// or one holding an access with a non-positive size, a negative offset
// or a negative slot. Streams come from outside the process (logs,
// iogen files), so callers that size files from a stream validate it
// first.
func Validate(accs []Access) error {
	if len(accs) == 0 {
		return errors.New("no accesses")
	}
	for _, a := range accs {
		if a.Size <= 0 {
			return fmt.Errorf("access with size %d", a.Size)
		}
		if a.Off < 0 || a.Slot < 0 {
			return fmt.Errorf("access with offset %d slot %d", a.Off, a.Slot)
		}
	}
	return nil
}

// Schedule validates an access stream and splits it into one stream
// per recorded process, in ascending PID order, each ordered by
// recorded start (ties keep their input order). base is the earliest
// recorded start: the instant that replays at the moment the processes
// start. The simulated replay (ReplayIO) and the live driver both
// schedule through it.
func Schedule(accs []Access) (streams [][]Access, base sim.Time, err error) {
	if err := Validate(accs); err != nil {
		return nil, 0, err
	}
	perPID := make(map[int64][]Access)
	base = accs[0].Start
	for _, a := range accs {
		perPID[a.PID] = append(perPID[a.PID], a)
		base = min(base, a.Start)
	}
	for _, s := range perPID {
		slices.SortStableFunc(s, func(a, b Access) int { return cmp.Compare(a.Start, b.Start) })
		streams = append(streams, s)
	}
	slices.SortFunc(streams, func(a, b []Access) int { return cmp.Compare(a[0].PID, b[0].PID) })
	return streams, base, nil
}

// Issue runs one process's stream on p, recording into col. Each
// access waits for its recorded start, counted from base at the moment
// Issue begins (preserving think time), but never for its recorded
// end: the stack under test sets the pace. The process keeps one
// POSIX interface per file slot it touches, built on first use from
// target. after, when non-nil, is handed each access's record once it
// completes. Issue returns the number of failed accesses.
func Issue(p *sim.Proc, stream []Access, base sim.Time, col *trace.Collector,
	target func(slot int) middleware.Target, after func(trace.Record)) (errs int) {
	start := p.Now()
	ios := make(map[int]*middleware.POSIX)
	for _, a := range stream {
		io, ok := ios[a.Slot]
		if !ok {
			io = middleware.NewPOSIX(target(a.Slot), col)
			ios[a.Slot] = io
		}
		if now, issueAt := p.Now(), start+(a.Start-base); now < issueAt {
			p.Sleep(issueAt - now)
		}
		var err error
		if a.Write {
			err = io.Write(p, a.Off, a.Size)
		} else {
			err = io.Read(p, a.Off, a.Size)
		}
		if err != nil {
			errs++
		}
		if after != nil {
			recs := col.Records()
			after(recs[len(recs)-1])
		}
	}
	return errs
}

// ReplayIO re-issues offset-aware accesses against a simulated stack:
// what-if analysis ("what would this application's trace have looked
// like on an SSD?"). Each recorded process becomes one simulation
// process that issues its accesses in original order at their original
// offsets, no earlier than their recorded start times but otherwise as
// fast as the new stack allows (see Schedule and Issue).
type ReplayIO struct {
	Label    string
	Accesses []Access
}

// SlotExtents returns the per-slot file size the replay needs: the
// largest end offset any access reaches in that slot.
func (w ReplayIO) SlotExtents() []int64 {
	var ext []int64
	for _, a := range w.Accesses {
		for a.Slot >= len(ext) {
			ext = append(ext, 0)
		}
		ext[a.Slot] = max(ext[a.Slot], a.Off+a.Size)
	}
	return ext
}

// Start implements Starter.
func (w ReplayIO) Start(e *sim.Engine, env Env) (*Pending, error) {
	streams, base, err := Schedule(w.Accesses)
	if err != nil {
		return nil, fmt.Errorf("workload %q: %w", w.Label, err)
	}
	pend := newPending(e, w.Label, env, len(streams))
	for i, s := range streams {
		col := trace.NewCollector(s[0].PID)
		pend.collectors[i] = col
		e.Spawn(fmt.Sprintf("%s.pid%d", w.Label, s[0].PID), pend.track(func(p *sim.Proc) {
			pend.errs[i] = Issue(p, s, base, col, env.Target, nil)
		}))
	}
	return pend, nil
}

// Run implements Runner.
func (w ReplayIO) Run(e *sim.Engine, env Env) (Result, error) {
	return runToCompletion(w, e, env)
}
