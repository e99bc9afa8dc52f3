package sim

import (
	"math/rand"
	"sync/atomic"
)

// This file is the live-measurement escape hatch: it lets ordinary Go
// goroutines drive the same Proc-based I/O stack (ioreq layers,
// middleware, trace collectors) that simulated processes use, against a
// pluggable clock instead of the event calendar. The simulation
// semantics are untouched — a live Proc never parks, never schedules
// events, and never enters the engine's dispatch loop; it only reads time,
// sleeps on its clock, draws from a private RNG, and mints request IDs
// from an atomic counter. Everything downstream of those five facilities
// (metrics, block accounting, window estimation) is pure over the
// timestamps it is handed, which is why a wall-clock or virtual-clock
// run flows through the identical code path as a simulated one.

// TimeSource yields the current time on some timeline — simulated
// (*Engine satisfies it) or live (wall-clock and virtual clocks in
// internal/clock).
type TimeSource interface {
	Now() Time
}

var _ TimeSource = (*Engine)(nil)

// LiveClock is the clock a detached live process runs against: a
// TimeSource plus the ability to spend time on it. A wall clock sleeps
// for real; a virtual clock advances a cursor.
type LiveClock interface {
	TimeSource
	Sleep(d Time)
}

// liveState carries the per-proc live facilities that replace the
// engine's: the clock, a private deterministic RNG, and a handle to the
// executor's shared request-ID counter.
type liveState struct {
	clock LiveClock
	rng   *rand.Rand
	exec  *LiveExec
}

// LiveExec mints detached live processes bound to an engine. The engine
// is never Run — it exists so that p.Engine() resolves to a real engine
// for observer lookup (obs.Get) and so request IDs stay unique across
// all workers of one live run. Unlike simulated procs, live procs run
// on plain goroutines with no alternation discipline: any number may
// execute concurrently, so everything they share (the obs registry's
// atomic counters, the caller's own collectors) must be thread-safe.
type LiveExec struct {
	eng *Engine
	ids atomic.Uint64
}

// NewLiveExec returns an executor bound to e. The engine should be a
// fresh NewEngine that is never Run: its calendar stays empty and only
// its identity (observer attachment) and nothing else is used.
func NewLiveExec(e *Engine) *LiveExec { return &LiveExec{eng: e} }

// Engine returns the (dormant) engine live procs report as theirs.
func (le *LiveExec) Engine() *Engine { return le.eng }

// NewProc returns a detached live process that tells time through clock
// and draws randomness from a private rand.New(rand.NewSource(seed)).
// The caller runs its body on an ordinary goroutine; the Proc is just
// the capability handle the ioreq/middleware stack expects. Event-loop
// facilities (Spawn, At, After, futures) panic on the returned Proc.
func (le *LiveExec) NewProc(name string, clock LiveClock, seed int64) *Proc {
	return &Proc{
		eng:  le.eng,
		name: name,
		live: &liveState{
			clock: clock,
			rng:   rand.New(rand.NewSource(seed)),
			exec:  le,
		},
	}
}
