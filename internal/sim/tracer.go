package sim

// Tracer receives structured events from the engine and its primitives:
// event dispatch, process lifecycle, and resource admission. It is the
// extension point the observability layer (internal/obs) plugs into.
//
// Every callback runs in simulation context — the engine serializes them
// with event callbacks and process execution, so implementations need no
// locking as long as their state is only read from simulation context or
// after Run has returned (iter.Pull's coroutine switches establish the
// happens-before edges the race detector needs).
//
// An engine without a tracer pays only a nil check per hook site; no
// allocations, no calls, no change to the event schedule. Attaching a
// tracer must not perturb simulated time either: callbacks observe the
// simulation, they never consume simulated time.
type Tracer interface {
	// EventDispatched fires after each event callback is popped from the
	// calendar, immediately before it runs. nevents counts dispatched
	// events including this one.
	EventDispatched(now Time, nevents uint64)

	// ProcStarted fires when a spawned process begins executing its body.
	ProcStarted(p *Proc)

	// ProcEnded fires when a process body returns (not when Shutdown
	// unwinds a parked daemon).
	ProcEnded(p *Proc)

	// ResourceQueued fires when a request for n units cannot be granted
	// immediately and the process parks in the FIFO queue.
	ResourceQueued(r *Resource, p *Proc, n int)

	// ResourceAcquired fires when n units are granted; waited is how long
	// the request queued (0 for immediate grants).
	ResourceAcquired(r *Resource, n int, waited Time)

	// ResourceReleased fires after n units are returned, before queued
	// waiters are admitted.
	ResourceReleased(r *Resource, n int)
}

// SetTracer attaches t to the engine; nil detaches. It must be called
// from outside a running simulation (typically right after NewEngine) so
// every subsequent event is observed.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// GetTracer returns the attached tracer, or nil.
func (e *Engine) GetTracer() Tracer { return e.tracer }

// SleepBackground suspends the process for d simulated nanoseconds using
// a background wake-up: the sleep fires only while foreground events
// keep the simulation alive. A sampler daemon loops on this so its
// periodic ticks never prolong the run (the final pending tick is simply
// never dispatched, and Shutdown unwinds the parked daemon).
func (p *Proc) SleepBackground(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	e := p.eng
	e.scheduleWake(e.now+d, p, true)
	p.park()
}
