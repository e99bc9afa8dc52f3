package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// event is a scheduled entry in the event calendar. Exactly one of fn
// and p is set: fn is an ordinary callback, while p marks a process
// wake-up (or a spawned process's start) that the dispatch loop resumes
// directly — spawns and the common Sleep/Resource path pay no closure
// allocation per wake.
type event struct {
	at  Time
	seq uint64 // FIFO tie-break for events at the same time
	fn  func()
	p   *Proc
	bg  bool // background events do not keep the simulation alive
}

// before reports whether ev fires before other in calendar order
// (time, then FIFO sequence).
func (ev *event) before(other *event) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

// eventQueue is a 4-ary min-heap over concrete event values, ordered by
// (at, seq). It replaces container/heap: the wider fan-out halves the
// tree depth of the sift-down that dominates pop, and the monomorphic
// element type removes the interface{} boxing (one allocation per
// heap.Push) and the Less/Swap indirection of the standard library
// interface.
type eventQueue []event

// push appends ev and sifts it up to its heap position.
func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release fn/p references for GC
	h = h[:n]
	*q = h
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// Engine is a deterministic discrete-event simulation engine: one event
// calendar with its own clock, FIFO sequence, RNG, request-ID space, and
// process set.
//
// The zero value is not usable; construct with NewEngine. All methods must
// be called either before Run, from inside an event callback, or from a
// running Proc — the engine enforces single-threaded execution, so no
// additional locking is required by users. Distinct engines are fully
// independent: programs may run many of them concurrently on different
// goroutines (one goroutine driving each), which is how the experiment
// runner parallelizes sweeps.
type Engine struct {
	now     Time
	events  eventQueue
	seq     uint64
	nevents uint64
	fg      int  // scheduled foreground events still in the calendar
	until   Time // deadline of the running RunUntil; -1 outside it

	// live tracks spawned processes that have not yet terminated, so that
	// Run can detect deadlock (live procs but an empty calendar).
	live map[*Proc]struct{}

	// procs tracks every unfinished process (including daemons), so
	// Shutdown can unwind parked ones.
	procs map[*Proc]struct{}

	rng *rand.Rand

	// nextReq is the last request identifier handed out by NextRequestID.
	nextReq uint64

	// tracer, when non-nil, observes event dispatch, process lifecycle,
	// and resource admission. See Tracer.
	tracer Tracer
}

// NewEngine returns an engine with simulated time 0 and an RNG seeded with
// seed. Two engines with the same seed executing the same program produce
// identical schedules.
func NewEngine(seed int64) *Engine {
	return &Engine{
		until: -1,
		live:  make(map[*Proc]struct{}),
		procs: make(map[*Proc]struct{}),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

func (e *Engine) schedule(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.fg++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// scheduleWake schedules parked process p to be resumed at absolute time
// t. The calendar stores the proc pointer itself, so the ubiquitous
// Sleep/wake path allocates no wrapper closure.
func (e *Engine) scheduleWake(t Time, p *Proc, bg bool) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling wake at %v before now %v", t, e.now))
	}
	e.seq++
	if !bg {
		e.fg++
	}
	e.events.push(event{at: t, seq: e.seq, p: p, bg: bg})
}

// wake schedules p to be resumed at the current time, preserving FIFO
// order with other wakes.
func (e *Engine) wake(p *Proc) {
	e.scheduleWake(e.now, p, false)
}

// Shutdown unwinds every parked process (daemon worker loops,
// deadlocked processes) after the simulation has finished, so that
// programs running many simulations do not accumulate suspended
// coroutines. Stopping a proc makes its pending park panic with
// killed{}, which runs the body's deferred calls; a real panic raised
// while unwinding surfaces from Shutdown. It must be called after
// Run/RunUntil has returned, from the same goroutine; the engine must
// not be used afterwards.
func (e *Engine) Shutdown() {
	for p := range e.procs {
		if p.co.next == nil {
			// The first wake never fired (RunUntil stopped early); there
			// is no coroutine to unwind.
			delete(e.procs, p)
			delete(e.live, p)
			continue
		}
		p.co.stop()
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// NextRequestID returns a fresh nonzero request identifier. IDs are
// strictly increasing in allocation order, which the engine's serialized
// execution makes deterministic.
func (e *Engine) NextRequestID() uint64 {
	e.nextReq++
	return e.nextReq
}

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.nevents }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation context.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past is an error in the simulation program and panics.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, fn) }

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) { e.schedule(e.now+d, fn) }

// dispatch does what every event dispatch does before the event runs:
// it moves the clock to t, counts the event and notifies tracer, if any.
// RunUntil passes the tracer it latched at entry; Proc.Sleep, dispatching
// its own wake in place, passes e.tracer.
func (e *Engine) dispatch(t Time, tracer Tracer) {
	e.now = t
	e.nevents++
	if tracer != nil {
		tracer.EventDispatched(t, e.nevents)
	}
}

// DeadlockError reports that processes remained blocked with no scheduled
// events to wake them.
type DeadlockError struct {
	Now   Time
	Procs []string // names of blocked processes, sorted
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d blocked process(es) %v", d.Now, len(d.Procs), d.Procs)
}

// Run executes events until the calendar is empty. It returns a
// *DeadlockError if live processes remain blocked afterwards, nil
// otherwise. Run must be called exactly once on the engine goroutine.
func (e *Engine) Run() error { return e.RunUntil(MaxTime) }

// RunUntil executes events with time ≤ deadline. Events beyond the
// deadline remain in the calendar, as do background events pending once
// the last foreground event has run. It returns a *DeadlockError if the
// foreground calendar drains while processes are still blocked.
//
// The tracer is latched once at entry (SetTracer documents it must be
// called outside a running simulation), keeping the dispatch loop free
// of per-event field loads. The deadline is kept in e.until while the
// loop runs, so Proc.Sleep can tell when its wake is the next event.
func (e *Engine) RunUntil(deadline Time) error {
	tracer := e.tracer
	e.until = deadline
	defer func() { e.until = -1 }()
	for e.fg > 0 {
		if e.events[0].at > deadline {
			return nil
		}
		ev := e.events.pop()
		if !ev.bg {
			e.fg--
		}
		e.dispatch(ev.at, tracer)
		if ev.p != nil {
			e.unpark(ev.p)
		} else {
			ev.fn()
		}
	}
	if len(e.live) > 0 {
		names := make([]string, 0, len(e.live))
		for p := range e.live {
			names = append(names, p.name)
		}
		sort.Strings(names)
		return &DeadlockError{Now: e.now, Procs: names}
	}
	return nil
}
