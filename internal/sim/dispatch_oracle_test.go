package sim

// Dispatch-order oracle: the engine's schedule, with Proc.Sleep's
// in-place wakes, is checked against a reference scheduler written
// here from the calendar's definition alone: a plain list of (time,
// seq) entries, popped in (time, seq) order, where background entries
// are dispatched only while foreground ones remain.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// resume is one observation: proc (or -1 for a RunUntil return, -2
// for a tracer EventDispatched callback) seen at simulated time now
// with the engine's event count.
type resume struct {
	now  Time
	proc int
	n    uint64
}

// dispatchRecorder is a Tracer that logs EventDispatched only.
type dispatchRecorder struct{ log *[]resume }

func (r dispatchRecorder) EventDispatched(now Time, n uint64) {
	*r.log = append(*r.log, resume{now, -2, n})
}
func (dispatchRecorder) ProcStarted(*Proc)                     {}
func (dispatchRecorder) ProcEnded(*Proc)                       {}
func (dispatchRecorder) ResourceQueued(*Resource, *Proc, int)  {}
func (dispatchRecorder) ResourceAcquired(*Resource, int, Time) {}
func (dispatchRecorder) ResourceReleased(*Resource, int)       {}

// oracleProgram is one seeded random program: foreground procs with
// spawn times and sleep lengths, one background-sleeping daemon, and
// the RunUntil deadline steps that drive it.
type oracleProgram struct {
	spawn  []Time   // spawn time per foreground proc
	sleeps [][]Time // sleep lengths per foreground proc
	tick   Time     // the daemon's SleepBackground period
	steps  []Time   // RunUntil deadline increments, cycled
}

// ties is the value set for spawn times and sleep lengths: small
// enough that equal-time events are frequent.
var ties = []Time{0, 1, 2, 5}

func newOracleProgram(rng *rand.Rand) oracleProgram {
	var pr oracleProgram
	n := 2 + rng.Intn(7)
	for i := 0; i < n; i++ {
		pr.spawn = append(pr.spawn, ties[rng.Intn(len(ties))])
		s := make([]Time, rng.Intn(9))
		for j := range s {
			s[j] = ties[rng.Intn(len(ties))]
		}
		pr.sleeps = append(pr.sleeps, s)
	}
	pr.tick = ties[1+rng.Intn(len(ties)-1)]
	// The first step is nonzero, so the deadline always advances.
	pr.steps = append(pr.steps, Time(1+rng.Intn(3)))
	for i := 0; i < 3; i++ {
		pr.steps = append(pr.steps, Time(rng.Intn(4)))
	}
	return pr
}

// runEngine executes pr on the engine and returns every resume, RunUntil
// return and tracer dispatch, in the order they happened. The daemon is
// proc len(pr.spawn).
func (pr oracleProgram) runEngine() []resume {
	var log []resume
	e := NewEngine(1)
	e.SetTracer(dispatchRecorder{&log})
	daemon := len(pr.spawn)
	e.SpawnDaemon("daemon", func(p *Proc) {
		for {
			log = append(log, resume{p.Now(), daemon, e.Events()})
			p.SleepBackground(pr.tick)
		}
	})
	for i, at := range pr.spawn {
		i := i
		e.SpawnAt(at, "p", func(p *Proc) {
			log = append(log, resume{p.Now(), i, e.Events()})
			for _, d := range pr.sleeps[i] {
				p.Sleep(d)
				log = append(log, resume{p.Now(), i, e.Events()})
			}
		})
	}
	deadline := Time(0)
	for k := 0; e.fg > 0; k++ {
		deadline += pr.steps[k%len(pr.steps)]
		if err := e.RunUntil(deadline); err != nil {
			panic(err)
		}
		log = append(log, resume{e.Now(), -1, e.Events()})
	}
	e.Shutdown()
	return log
}

// runReference executes pr on the reference scheduler and returns the
// log runEngine should produce.
func (pr oracleProgram) runReference() []resume {
	type entry struct {
		at   Time
		seq  uint64
		proc int
		bg   bool
	}
	var (
		cal      []entry
		log      []resume
		now      Time
		seq, nev uint64
		fg       int
		next     = make([]int, len(pr.spawn)) // sleeps done per proc
	)
	push := func(at Time, proc int, bg bool) {
		seq++
		cal = append(cal, entry{at, seq, proc, bg})
		if !bg {
			fg++
		}
	}
	daemon := len(pr.spawn)
	push(0, daemon, false) // a spawn's first wake is foreground
	for i, at := range pr.spawn {
		push(at, i, false)
	}
	deadline := Time(0)
	for k := 0; fg > 0; k++ {
		deadline += pr.steps[k%len(pr.steps)]
		for fg > 0 {
			min := 0
			for i, c := range cal {
				if c.at < cal[min].at || c.at == cal[min].at && c.seq < cal[min].seq {
					min = i
				}
			}
			ev := cal[min]
			if ev.at > deadline {
				break
			}
			cal = append(cal[:min], cal[min+1:]...)
			if !ev.bg {
				fg--
			}
			now = ev.at
			nev++
			log = append(log, resume{now, -2, nev}, resume{now, ev.proc, nev})
			switch {
			case ev.proc == daemon:
				push(now+pr.tick, daemon, true)
			case next[ev.proc] < len(pr.sleeps[ev.proc]):
				push(now+pr.sleeps[ev.proc][next[ev.proc]], ev.proc, false)
				next[ev.proc]++
			}
		}
		log = append(log, resume{now, -1, nev})
	}
	return log
}

// TestDispatchOrderOracle compares the engine with the reference
// scheduler over seeded random programs.
func TestDispatchOrderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5ee9))
	for i := 0; i < 2000; i++ {
		pr := newOracleProgram(rng)
		got, want := pr.runEngine(), pr.runReference()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("program %d %+v:\n got %v\nwant %v", i, pr, got, want)
		}
	}
}

// TestSleepInPlaceEqualTimeEventFirst: an event already queued at the
// wake's time was scheduled first, so FIFO order runs it before the
// sleeper resumes.
func TestSleepInPlaceEqualTimeEventFirst(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(5, func() { order = append(order, "event") })
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5)
		order = append(order, "sleeper")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[event sleeper]" {
		t.Fatalf("order = %v, want [event sleeper]", order)
	}
}

// TestSleepInPlaceRespectsDeadline: a sleep past RunUntil's deadline
// stays in the calendar and resumes on the next RunUntil.
func TestSleepInPlaceRespectsDeadline(t *testing.T) {
	e := NewEngine(1)
	var woke Time = -1
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10)
		woke = p.Now()
	})
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if woke != -1 || e.Now() != 0 || e.Events() != 1 || len(e.events) != 1 {
		t.Fatalf("after RunUntil(5): woke %v, now %v, events %d, calendar %d; want -1, 0, 1, 1",
			woke, e.Now(), e.Events(), len(e.events))
	}
	if err := e.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if woke != 10 || e.Now() != 10 || e.Events() != 2 {
		t.Fatalf("after RunUntil(20): woke %v, now %v, events %d; want 10, 10, 2", woke, e.Now(), e.Events())
	}
}

// TestSleepInPlaceBlockedByBackgroundTick: a background wake due before
// the sleeper's wake is dispatched first.
func TestSleepInPlaceBlockedByBackgroundTick(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.SpawnDaemon("ticker", func(p *Proc) {
		for {
			order = append(order, fmt.Sprintf("tick@%d", p.Now()))
			p.SleepBackground(3)
		}
	})
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5)
		order = append(order, fmt.Sprintf("sleeper@%d", p.Now()))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if got := fmt.Sprint(order); got != "[tick@0 tick@3 sleeper@5]" {
		t.Fatalf("order = %s, want [tick@0 tick@3 sleeper@5]", got)
	}
}

// TestSleepInPlaceCountsEvents: N sleeps on a lone proc dispatch N+1
// events (the spawn plus one per wake), and the tracer sees each one
// with consecutive counts at the wake's time.
func TestSleepInPlaceCountsEvents(t *testing.T) {
	const n = 100
	var log []resume
	e := NewEngine(1)
	e.SetTracer(dispatchRecorder{&log})
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(Time(i % 3))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Events() != n+1 || len(log) != n+1 {
		t.Fatalf("events %d, tracer saw %d; want %d each", e.Events(), len(log), n+1)
	}
	var at Time
	for i, r := range log {
		if i > 0 {
			at += Time((i - 1) % 3)
		}
		if r.n != uint64(i+1) || r.now != at {
			t.Fatalf("dispatch %d = (now %v, n %d), want (now %v, n %d)", i, r.now, r.n, at, i+1)
		}
	}
}
