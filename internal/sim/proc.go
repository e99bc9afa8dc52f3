package sim

import (
	"iter"
	"math/rand"
)

// Proc is a simulation process: a Go function running as a coroutine
// (iter.Pull) of the engine's dispatch loop. At any instant either the
// dispatch loop or exactly one of its processes is executing; control
// transfers happen only at park points (Sleep, Future.Wait,
// Resource.Acquire, Queue ops), where the body yields and the loop's
// next wake of the proc resumes it. Engine.Shutdown unwinds a parked
// body by stopping its coroutine.
//
// A Proc must not be shared across goroutines and must only be used by the
// body function it was created for.
type Proc struct {
	eng  *Engine
	name string
	ctx  any // current request context (see SetCtx)

	// co is the coroutine an engine-driven proc runs as (nil on a
	// detached live proc). It sits behind a pointer so that a Proc fits
	// one 64-byte cache line: live workers write their Procs' ctx from
	// parallel goroutines, and two Procs sharing a line slow each other.
	co *coroutine

	// live is non-nil for a detached live-measurement process (see
	// LiveExec): the proc runs on an ordinary goroutine against a
	// pluggable clock instead of the engine's event loop. All event-loop
	// facilities (Spawn, At, futures) are unavailable in that mode.
	live *liveState
}

// coroutine is an engine-driven proc's iter.Pull state: next resumes
// the body until it parks or returns, stop unwinds a parked body, and
// yield (called inside the body) parks it. next is nil until the proc's
// first wake starts the coroutine.
type coroutine struct {
	body  func(*Proc)
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// killed is the sentinel panic value that unwinds a process during
// Engine.Shutdown.
type killed struct{}

// Engine returns the engine the process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Ctx returns the process's current request context (nil when idle).
// Layers install the in-flight request here so components lower in the
// stack — and cross-cutting concerns like trace-span tagging — can see
// which logical access they are serving without every call signature
// threading it through.
func (p *Proc) Ctx() any { return p.ctx }

// SetCtx installs v as the process's request context. Callers save the
// previous value and restore it when their request completes, so nested
// requests unwind correctly.
func (p *Proc) SetCtx(v any) { p.ctx = v }

// Now returns the current time — simulated time for an engine-driven
// process, the live clock's time for a detached one.
func (p *Proc) Now() Time {
	if p.live != nil {
		return p.live.clock.Now()
	}
	return p.eng.now
}

// Rand returns the engine's deterministic random source. Detached live
// processes own a private RNG, so concurrent workers never share one
// stream.
func (p *Proc) Rand() *rand.Rand {
	if p.live != nil {
		return p.live.rng
	}
	return p.eng.rng
}

// NextRequestID returns a fresh request identifier (see
// Engine.NextRequestID). Detached live processes draw from their
// LiveExec's atomic counter.
func (p *Proc) NextRequestID() uint64 {
	if p.live != nil {
		return p.live.exec.ids.Add(1)
	}
	return p.eng.NextRequestID()
}

// NewFuture returns an incomplete Future.
func (p *Proc) NewFuture() *Future {
	if p.live != nil {
		panic("sim: futures are not available on a detached live proc")
	}
	return &Future{eng: p.eng}
}

// Spawn creates a process that begins executing body at the caller's
// current simulated time.
func (p *Proc) Spawn(name string, body func(*Proc)) *Proc {
	if p.live != nil {
		panic("sim: Spawn is not available on a detached live proc")
	}
	return p.eng.spawn(p.eng.now, name, body, false)
}

// Spawn creates a process that begins executing body at the current
// simulated time (after already-scheduled events at that time). It may
// be called before Run or from simulation context.
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	return e.spawn(e.now, name, body, false)
}

// SpawnAt creates a process that begins executing body at absolute time t.
func (e *Engine) SpawnAt(t Time, name string, body func(*Proc)) *Proc {
	return e.spawn(t, name, body, false)
}

// SpawnDaemon creates an infrastructure process (e.g. a server worker
// loop) that is expected to block forever once the workload drains: it is
// excluded from deadlock detection. It stays parked when the simulation
// ends, until Engine.Shutdown unwinds it.
func (e *Engine) SpawnDaemon(name string, body func(*Proc)) *Proc {
	return e.spawn(e.now, name, body, true)
}

func (e *Engine) spawn(t Time, name string, body func(*Proc), daemon bool) *Proc {
	p := &Proc{eng: e, name: name, co: &coroutine{body: body}}
	if !daemon {
		e.live[p] = struct{}{}
	}
	e.procs[p] = struct{}{}
	// The first wake starts the body (see unpark), so a spawn schedules
	// no closure of its own.
	e.scheduleWake(t, p, false)
	return p
}

// run is the coroutine body behind p.co.next: it runs p's body to
// completion, or until Shutdown's stop makes a park panic with
// killed{}. Any other panic is re-raised, and iter.Pull carries it out
// of the next or stop call that resumed p — inside Run or Shutdown, on
// the caller's stack.
func (p *Proc) run(yield func(struct{}) bool) {
	e := p.eng
	p.co.yield = yield
	defer func() {
		delete(e.live, p)
		delete(e.procs, p)
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(r)
			}
		} else if tr := e.tracer; tr != nil {
			tr.ProcEnded(p)
		}
	}()
	p.co.body(p)
}

// park suspends the calling process and returns control to the engine's
// dispatch loop. The process stays suspended until some event callback
// calls unpark, or Engine.Shutdown kills it: once stop has run, yield
// returns false at once, so a park reached while unwinding panics again
// instead of suspending.
func (p *Proc) park() {
	if p.live != nil {
		panic("sim: park on a detached live proc")
	}
	if !p.co.yield(struct{}{}) {
		panic(killed{})
	}
}

// unpark transfers control from the dispatch loop to process p and
// returns when p parks again or terminates. The first unpark of a proc
// starts its body. It must be called only from an event callback
// (dispatch context), never from another process.
func (e *Engine) unpark(p *Proc) {
	co := p.co
	if co.next == nil {
		co.next, co.stop = iter.Pull(p.run)
		if tr := e.tracer; tr != nil {
			tr.ProcStarted(p)
		}
	}
	co.next()
}

// At schedules fn as a foreground event at absolute time t. It is the
// process-scoped counterpart of Engine.At.
func (p *Proc) At(t Time, fn func()) {
	if p.live != nil {
		panic("sim: At is not available on a detached live proc")
	}
	p.eng.schedule(t, fn)
}

// After schedules fn d nanoseconds from now (see At).
func (p *Proc) After(d Time, fn func()) {
	if p.live != nil {
		panic("sim: After is not available on a detached live proc")
	}
	p.eng.schedule(p.eng.now+d, fn)
}

// Sleep suspends the process for d simulated nanoseconds. Zero d yields to
// other events scheduled at the current time. On a detached live proc the
// call maps onto the live clock's Sleep: real elapsed time under a wall
// clock, a cursor advance under a virtual one.
//
// When the wake would be the very next event dispatched (inside RunUntil,
// within its deadline, and strictly before the calendar's head, which
// wins ties by FIFO order), Sleep dispatches it in place instead of
// parking: it advances the clock, sequence and event count and notifies
// the tracer exactly as the dispatch loop would on popping the wake, and
// the proc never leaves its coroutine.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if p.live != nil {
		p.live.clock.Sleep(d)
		return
	}
	e := p.eng
	t := e.now + d
	// until is -1 outside RunUntil, so the test fails before Run and
	// during Shutdown. Comparing d with until-now, not t with until,
	// cannot overflow.
	if d <= e.until-e.now && (len(e.events) == 0 || t < e.events[0].at) {
		e.seq++
		e.dispatch(t, e.tracer)
		return
	}
	e.scheduleWake(t, p, false)
	p.park()
}

// Future is a one-shot completion that processes can wait on. Construct
// with Engine.NewFuture or Proc.NewFuture. A completed future with
// nothing registered on it can be turned back into an incomplete one
// with Reset and reused.
type Future struct {
	eng  *Engine
	done bool
	when Time

	// waiter is the first process to wait, kept inline so the common
	// single-waiter future allocates nothing; waiters holds any later
	// ones. Complete wakes them in arrival order.
	waiter  *Proc
	waiters []*Proc

	// onComplete callbacks run synchronously inside Complete, after the
	// waiters have been scheduled. WaitTimeout uses them to observe
	// completion without registering p as a plain waiter, so completion
	// and timeout can never both wake the same process.
	onComplete []func()
}

// NewFuture returns an incomplete Future.
func (e *Engine) NewFuture() *Future { return &Future{eng: e} }

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// When returns the time the future completed (valid only if Done).
func (f *Future) When() Time { return f.when }

// Complete marks the future done and wakes all waiters. Completing twice
// panics: completion is a one-shot protocol and a double completion always
// indicates a bug in the simulation program.
func (f *Future) Complete() {
	if f.done {
		panic("sim: Future completed twice")
	}
	f.done = true
	f.when = f.eng.now
	if p := f.waiter; p != nil {
		f.waiter = nil
		f.eng.wake(p)
		for _, p := range f.waiters {
			f.eng.wake(p)
		}
		f.waiters = nil
	}
	for _, fn := range f.onComplete {
		fn()
	}
	f.onComplete = nil
}

// Reset turns the future back into an incomplete one, so its owner can
// reuse it for a new completion instead of allocating another. It
// panics while a waiter or a WaitTimeout observer is still registered:
// such a future is still in use. Only the future's owner may call it,
// once every process that waited on the old completion has resumed.
func (f *Future) Reset() {
	if f.waiter != nil || len(f.onComplete) > 0 {
		panic("sim: Reset of a Future still waited on")
	}
	f.done = false
	f.when = 0
}

// Wait suspends p until the future completes. Returns immediately if it
// already has.
func (f *Future) Wait(p *Proc) {
	if f.done {
		return
	}
	if f.waiter == nil {
		f.waiter = p
	} else {
		f.waiters = append(f.waiters, p)
	}
	p.park()
}

// WaitTimeout suspends p until the future completes or d nanoseconds
// elapse, whichever comes first. It reports whether the future completed
// within the window. On timeout the future is left untouched: a later
// Complete still runs (and wakes any other waiters) but no longer
// concerns p.
//
// The timeout timer is a foreground event: a wait on a future that will
// never complete (a dead server's reply) must still count as pending
// work, or the engine would report a spurious deadlock once the rest of
// the foreground calendar drains. The cost is that the engine clock runs
// to the timer's expiry even when the future completes first.
func (f *Future) WaitTimeout(p *Proc, d Time) bool {
	if f.done {
		return true
	}
	if d < 0 {
		panic("sim: negative timeout")
	}
	e := p.eng
	// settled flips synchronously when completion or the timer fires
	// first, so exactly one of them schedules the wake for p.
	settled, completed := false, false
	fire := func(ok bool) {
		if settled {
			return
		}
		settled = true
		completed = ok
		e.wake(p)
	}
	f.onComplete = append(f.onComplete, func() { fire(true) })
	e.schedule(e.now+d, func() { fire(false) })
	p.park()
	return completed
}

// WaitAll suspends p until every future in fs has completed.
func WaitAll(p *Proc, fs ...*Future) {
	for _, f := range fs {
		f.Wait(p)
	}
}

// WaitGroup counts outstanding work items, like sync.WaitGroup but for
// simulated processes.
type WaitGroup struct {
	n       int
	waiters []*Proc
}

// NewWaitGroup returns a WaitGroup with a zero count.
func (e *Engine) NewWaitGroup() *WaitGroup { return &WaitGroup{} }

// NewWaitGroup returns a WaitGroup with a zero count.
func (p *Proc) NewWaitGroup() *WaitGroup { return &WaitGroup{} }

// Add increments the counter by k.
func (w *WaitGroup) Add(k int) {
	w.n += k
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.release()
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

func (w *WaitGroup) release() {
	for _, p := range w.waiters {
		p.eng.wake(p)
	}
	w.waiters = nil
}

// Wait suspends p until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.n == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.park()
}
