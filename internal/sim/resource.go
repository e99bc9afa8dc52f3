package sim

import "slices"

// Resource is a counted resource with strict-FIFO admission, modelling
// things like a disk head (capacity 1), SSD channels (capacity k), or a
// NIC. Waiters may request multiple units; admission is strictly in
// arrival order — if the head waiter cannot be satisfied, later waiters
// are not admitted ahead of it (no barging, no starvation).
type Resource struct {
	eng   *Engine
	name  string
	cap   int
	inUse int

	// queue[qhead:] holds the waiting requests. Popping advances qhead
	// instead of re-slicing the front away, so the backing array keeps
	// its full capacity and steady-state contention runs allocation-free;
	// the array is compacted (not grown) when the tail hits capacity
	// while dead space remains at the front.
	queue []waitReq
	qhead int

	// Utilization accounting.
	busySince Time // when inUse last went 0→nonzero
	busyTotal Time // accumulated time with inUse > 0
	acquires  uint64
}

type waitReq struct {
	p     *Proc
	n     int
	since Time // when the request joined the queue
}

// NewResource returns a resource with the given capacity (≥ 1).
func (e *Engine) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{eng: e, name: name, cap: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Cap returns the resource capacity.
func (r *Resource) Cap() int { return r.cap }

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.queue) - r.qhead }

// Acquires returns the total number of successful acquisitions.
func (r *Resource) Acquires() uint64 { return r.acquires }

// BusyTime returns the accumulated simulated time during which at least
// one unit was held, up to the current time.
func (r *Resource) BusyTime() Time {
	t := r.busyTotal
	if r.inUse > 0 {
		t += r.eng.now - r.busySince
	}
	return t
}

// Utilization returns the fraction of [0, now] during which at least one
// unit was held — the uniform per-resource utilization figure the
// metrics layer samples. now is typically Engine.Now(); a now of 0 (or
// negative) yields 0.
func (r *Resource) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	busy := r.busyTotal
	if r.inUse > 0 && now > r.busySince {
		busy += now - r.busySince
	}
	return float64(busy) / float64(now)
}

// Acquire obtains one unit, suspending p in FIFO order if none is free.
func (r *Resource) Acquire(p *Proc) { r.AcquireN(p, 1) }

// AcquireN obtains n units (1 ≤ n ≤ Cap), suspending p in FIFO order until
// they are all available. Units are granted atomically.
func (r *Resource) AcquireN(p *Proc, n int) {
	if n < 1 || n > r.cap {
		panic("sim: AcquireN units out of range for resource " + r.name)
	}
	if r.qhead == len(r.queue) && r.inUse+n <= r.cap {
		r.grant(n)
		if t := r.eng.tracer; t != nil {
			t.ResourceAcquired(r, n, 0)
		}
		return
	}
	if r.qhead > 0 && len(r.queue) == cap(r.queue) {
		live := copy(r.queue, r.queue[r.qhead:])
		clearTail(r.queue[live:])
		r.queue = r.queue[:live]
		r.qhead = 0
	}
	r.queue = append(r.queue, waitReq{p: p, n: n, since: r.eng.now})
	if t := r.eng.tracer; t != nil {
		t.ResourceQueued(r, p, n)
	}
	p.park()
	// The releaser granted our units before waking us.
}

// clearTail zeroes dead queue slots so they do not pin procs for GC.
func clearTail(dead []waitReq) {
	for i := range dead {
		dead[i] = waitReq{}
	}
}

// TryAcquire obtains a unit without blocking; it reports whether it
// succeeded.
func (r *Resource) TryAcquire() bool { return r.TryAcquireN(1) }

// TryAcquireN obtains n units without blocking; it reports whether it
// succeeded. It fails if waiters are queued, preserving FIFO order.
func (r *Resource) TryAcquireN(n int) bool {
	if n < 1 || n > r.cap {
		panic("sim: TryAcquireN units out of range for resource " + r.name)
	}
	if r.qhead == len(r.queue) && r.inUse+n <= r.cap {
		r.grant(n)
		if t := r.eng.tracer; t != nil {
			t.ResourceAcquired(r, n, 0)
		}
		return true
	}
	return false
}

func (r *Resource) grant(n int) {
	if r.inUse == 0 {
		r.busySince = r.eng.now
	}
	r.inUse += n
	r.acquires++
}

// Release returns one unit.
func (r *Resource) Release() { r.ReleaseN(1) }

// ReleaseN returns n units and admits as many queued waiters (in FIFO
// order) as now fit.
func (r *Resource) ReleaseN(n int) {
	if n < 1 || n > r.inUse {
		panic("sim: ReleaseN of units not held on resource " + r.name)
	}
	r.inUse -= n
	if r.inUse == 0 {
		r.busyTotal += r.eng.now - r.busySince
	}
	if t := r.eng.tracer; t != nil {
		t.ResourceReleased(r, n)
	}
	for r.qhead < len(r.queue) && r.inUse+r.queue[r.qhead].n <= r.cap {
		w := r.queue[r.qhead]
		r.queue[r.qhead] = waitReq{}
		r.qhead++
		if r.qhead == len(r.queue) {
			r.queue = r.queue[:0]
			r.qhead = 0
		}
		r.grant(w.n)
		if t := r.eng.tracer; t != nil {
			t.ResourceAcquired(r, w.n, r.eng.now-w.since)
		}
		r.eng.wake(w.p)
	}
}

// Use runs fn while holding one unit of the resource.
func (r *Resource) Use(p *Proc, fn func()) {
	r.Acquire(p)
	defer r.Release()
	fn()
}

// Queue is an unbounded FIFO channel between simulation processes. Put never blocks; Get suspends the caller until an item is
// available.
type Queue struct {
	eng     *Engine
	items   []interface{}
	ihead   int
	waiters []*Proc
	maxLen  int
}

// NewQueue returns an empty queue.
func (e *Engine) NewQueue() *Queue { return &Queue{eng: e} }

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) - q.ihead }

// MaxLen returns the high-water mark of the queue length.
func (q *Queue) MaxLen() int { return q.maxLen }

// Put appends an item and wakes one waiting getter, if any.
func (q *Queue) Put(item interface{}) {
	if q.ihead > 0 && len(q.items) == cap(q.items) {
		live := copy(q.items, q.items[q.ihead:])
		for i := live; i < len(q.items); i++ {
			q.items[i] = nil
		}
		q.items = q.items[:live]
		q.ihead = 0
	}
	q.items = append(q.items, item)
	if n := len(q.items) - q.ihead; n > q.maxLen {
		q.maxLen = n
	}
	if len(q.waiters) > 0 {
		// Pop by copy, not by re-slicing the front away, so the slice
		// keeps its capacity and a parking Get appends without
		// allocating; Delete clears the vacated slot.
		p := q.waiters[0]
		q.waiters = slices.Delete(q.waiters, 0, 1)
		q.eng.wake(p)
	}
}

// Get removes and returns the oldest item, suspending p until one exists.
func (q *Queue) Get(p *Proc) interface{} {
	for q.ihead == len(q.items) {
		q.waiters = append(q.waiters, p)
		p.park()
	}
	item := q.items[q.ihead]
	q.items[q.ihead] = nil
	q.ihead++
	if q.ihead == len(q.items) {
		q.items = q.items[:0]
		q.ihead = 0
	}
	return item
}
