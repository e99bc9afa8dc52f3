package sim

import (
	"runtime"
	"testing"
)

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Fatalf("Second.Seconds() = %v, want 1", Second.Seconds())
	}
	if Millisecond.Millis() != 1.0 {
		t.Fatalf("Millisecond.Millis() = %v, want 1", Millisecond.Millis())
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
	if got := FromSeconds(-1); got != 0 {
		t.Fatalf("FromSeconds(-1) = %v, want 0", got)
	}
}

func TestTransferTime(t *testing.T) {
	// 1 MiB at 1 MiB/s takes one second.
	if got := TransferTime(1<<20, 1<<20); got != Second {
		t.Fatalf("TransferTime = %v, want 1s", got)
	}
	if got := TransferTime(0, 1<<20); got != 0 {
		t.Fatalf("TransferTime(0) = %v, want 0", got)
	}
	// Tiny transfers round up to 1ns rather than vanishing.
	if got := TransferTime(1, 1e18); got != 1 {
		t.Fatalf("TransferTime tiny = %v, want 1ns", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{2 * Second, "2s"},
		{3 * Millisecond, "3ms"},
		{4 * Microsecond, "4us"},
		{5, "5ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(10, func() { order = append(order, 2) })
	e.At(5, func() { order = append(order, 1) })
	e.At(10, func() { order = append(order, 3) }) // same time: FIFO after the first t=10 event
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10", e.Now())
	}
	if e.Events() != 3 {
		t.Fatalf("Events = %d, want 3", e.Events())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() { ran++ })
	if err := e.RunUntil(15); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d events by t=15, want 1", ran)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran = %d events total, want 2", ran)
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine(1)
	var at1, at2 Time
	e.Spawn("p", func(p *Proc) {
		at1 = p.Now()
		p.Sleep(5 * Millisecond)
		at2 = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 0 || at2 != 5*Millisecond {
		t.Fatalf("sleep: at1=%v at2=%v", at1, at2)
	}
}

func TestProcInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var log []string
		for i := 0; i < 3; i++ {
			name := string(rune('a' + i))
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					log = append(log, p.Name())
					p.Sleep(Time(1+j) * Millisecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != 9 || len(b) != 9 {
		t.Fatalf("log lengths %d, %d, want 9", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, a, b)
		}
	}
	// First round must run in spawn order.
	if a[0] != "a" || a[1] != "b" || a[2] != "c" {
		t.Fatalf("spawn order violated: %v", a[:3])
	}
}

func TestFuture(t *testing.T) {
	e := NewEngine(1)
	f := e.NewFuture()
	var waited Time
	e.Spawn("waiter", func(p *Proc) {
		f.Wait(p)
		waited = p.Now()
	})
	e.Spawn("completer", func(p *Proc) {
		p.Sleep(7 * Millisecond)
		f.Complete()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !f.Done() || f.When() != 7*Millisecond || waited != 7*Millisecond {
		t.Fatalf("future: done=%v when=%v waited=%v", f.Done(), f.When(), waited)
	}
}

func TestFutureWaitAfterComplete(t *testing.T) {
	e := NewEngine(1)
	f := e.NewFuture()
	ok := false
	e.Spawn("p", func(p *Proc) {
		f.Complete()
		f.Wait(p) // must not block
		ok = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Wait after Complete blocked")
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	e := NewEngine(1)
	f := e.NewFuture()
	e.Spawn("p", func(p *Proc) {
		f.Complete()
		defer func() {
			if recover() == nil {
				t.Error("double Complete did not panic")
			}
		}()
		f.Complete()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFutureWakesWaitersInArrivalOrder: the first waiter sits inline
// and later ones in a slice; completion still wakes them in the order
// they arrived.
func TestFutureWakesWaitersInArrivalOrder(t *testing.T) {
	e := NewEngine(1)
	f := e.NewFuture()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		e.Spawn(name, func(p *Proc) {
			f.Wait(p)
			order = append(order, name)
		})
	}
	e.At(Millisecond, f.Complete)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("wake order %v, want [a b c]", order)
	}
}

// TestFutureReset: a reset future completes once more and wakes only
// the processes that waited after the reset; completing it twice still
// panics.
func TestFutureReset(t *testing.T) {
	e := NewEngine(1)
	f := e.NewFuture()
	wakes := map[string][]Time{}
	wait := func(p *Proc) {
		f.Wait(p)
		wakes[p.Name()] = append(wakes[p.Name()], p.Now())
	}
	e.Spawn("old", wait)
	e.Spawn("owner", func(p *Proc) {
		p.Sleep(Millisecond)
		f.Complete()
		p.Sleep(Millisecond)
		f.Reset()
		if f.Done() {
			t.Error("Done after Reset")
		}
		p.Spawn("new", wait)
		p.Sleep(Millisecond)
		f.Complete()
		defer func() {
			if recover() == nil {
				t.Error("second Complete of a reset future did not panic")
			}
		}()
		f.Complete()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := wakes["old"]; len(got) != 1 || got[0] != Millisecond {
		t.Errorf("old waiter woke at %v, want once at 1ms", got)
	}
	if got := wakes["new"]; len(got) != 1 || got[0] != 3*Millisecond {
		t.Errorf("new waiter woke at %v, want once at 3ms", got)
	}
	if !f.Done() || f.When() != 3*Millisecond {
		t.Errorf("done=%v when=%v, want the reset completion at 3ms", f.Done(), f.When())
	}
}

// TestFutureResetPanicsWhileWaitedOn: Reset refuses a future that a
// parked waiter or a pending WaitTimeout observer still holds.
func TestFutureResetPanicsWhileWaitedOn(t *testing.T) {
	for name, wait := range map[string]func(f *Future, p *Proc){
		"Wait":        func(f *Future, p *Proc) { f.Wait(p) },
		"WaitTimeout": func(f *Future, p *Proc) { f.WaitTimeout(p, 10*Millisecond) },
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(1)
			f := e.NewFuture()
			e.Spawn("waiter", func(p *Proc) { wait(f, p) })
			e.Spawn("owner", func(p *Proc) {
				p.Sleep(Millisecond)
				func() {
					defer func() {
						if recover() == nil {
							t.Error("Reset with a registered waiter did not panic")
						}
					}()
					f.Reset()
				}()
				f.Complete()
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine(1)
	wg := e.NewWaitGroup()
	wg.Add(3)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		d := Time(i) * Millisecond
		e.Spawn("w", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 3*Millisecond {
		t.Fatalf("waitgroup released at %v, want 3ms", doneAt)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	f := e.NewFuture()
	e.Spawn("stuck", func(p *Proc) { f.Wait(p) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run err = %v, want DeadlockError", err)
	}
	if len(de.Procs) != 1 || de.Procs[0] != "stuck" {
		t.Fatalf("deadlocked procs = %v", de.Procs)
	}
}

func TestDeterministicRand(t *testing.T) {
	e1, e2 := NewEngine(7), NewEngine(7)
	for i := 0; i < 100; i++ {
		if e1.Rand().Int63() != e2.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestShutdownUnwindsDaemons(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := NewEngine(1)
		q := e.NewQueue()
		// Daemon worker that would otherwise park forever.
		e.SpawnDaemon("worker", func(p *Proc) {
			for {
				q.Get(p)
			}
		})
		e.Spawn("app", func(p *Proc) {
			q.Put(1)
			p.Sleep(Millisecond)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Shutdown()
	}
	runtime.GC()
	after := runtime.NumGoroutine()
	if after > before+5 {
		t.Fatalf("goroutines grew from %d to %d despite Shutdown", before, after)
	}
}

// TestShutdownParkWhileUnwinding parks a daemon again from its deferred
// calls while Shutdown unwinds it. Once stopped, a proc's yield keeps
// returning false, so every such park panics with killed{} at once: the
// unwind neither hangs nor leaves a suspended coroutine behind.
func TestShutdownParkWhileUnwinding(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := NewEngine(1)
		f := e.NewFuture()
		repark := 0
		e.SpawnDaemon("cleanup", func(p *Proc) {
			// Runs last: a park with no recover, so killed{} unwinds the
			// rest of the body.
			defer p.Sleep(Millisecond)
			defer func() {
				for j := 0; j < 3; j++ {
					func() {
						defer func() {
							if _, ok := recover().(killed); ok {
								repark++
							}
						}()
						p.Sleep(Millisecond)
					}()
				}
				if p.co.yield(struct{}{}) {
					t.Error("yield returned true after stop")
				}
			}()
			f.Wait(p)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Shutdown()
		if repark != 3 {
			t.Fatalf("deferred parks unwound %d times, want 3", repark)
		}
		if len(e.procs) != 0 {
			t.Fatalf("procs remain: %d", len(e.procs))
		}
	}
	runtime.GC()
	after := runtime.NumGoroutine()
	if after > before+5 {
		t.Fatalf("goroutines grew from %d to %d despite Shutdown", before, after)
	}
}

// TestShutdownSurfacesDeferredPanic pins that a real panic raised by a
// deferred call while Shutdown unwinds a proc is not mistaken for the
// killed{} sentinel: it surfaces from Shutdown.
func TestShutdownSurfacesDeferredPanic(t *testing.T) {
	e := NewEngine(1)
	f := e.NewFuture()
	e.SpawnDaemon("bad-cleanup", func(p *Proc) {
		defer func() { panic("cleanup failed") }()
		f.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != "cleanup failed" {
			t.Errorf("Shutdown recovered %v, want the deferred call's panic", r)
		}
	}()
	e.Shutdown()
	t.Error("Shutdown returned instead of panicking")
}

func TestShutdownUnwindsDeadlockedProcs(t *testing.T) {
	e := NewEngine(1)
	f := e.NewFuture()
	e.Spawn("stuck", func(p *Proc) { f.Wait(p) })
	if _, ok := e.Run().(*DeadlockError); !ok {
		t.Fatal("expected deadlock")
	}
	e.Shutdown() // must not hang
	if len(e.procs) != 0 {
		t.Fatalf("procs remain: %d", len(e.procs))
	}
}

func TestShutdownSkipsUnstartedProcs(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("early", func(p *Proc) {})
	e.SpawnAt(10*Second, "late", func(p *Proc) {})
	if err := e.RunUntil(Second); err != nil {
		t.Fatal(err)
	}
	e.Shutdown() // "late" never started; must not hang
	if len(e.procs) != 0 {
		t.Fatalf("procs remain: %d", len(e.procs))
	}
}

func TestShutdownAfterCleanRunIsNoop(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) { p.Sleep(Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
}

func TestProcPanicPropagates(t *testing.T) {
	// A real panic in a process body must not be swallowed by the killed
	// sentinel recovery: it re-raises on the engine goroutine, inside
	// Run, where the caller can see it.
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want the process's panic", r)
		}
	}()
	e := NewEngine(1)
	e.Spawn("bad", func(p *Proc) { panic("boom") })
	_ = e.Run()
	t.Error("Run returned instead of panicking")
}

func TestChildProcPanicPropagates(t *testing.T) {
	// A panic in a proc spawned by another proc reaches Run's caller too.
	defer func() {
		if r := recover(); r != "child boom" {
			t.Errorf("recovered %v, want the child's panic", r)
		}
	}()
	e := NewEngine(1)
	e.Spawn("parent", func(p *Proc) {
		p.Spawn("child", func(c *Proc) {
			c.Sleep(Millisecond)
			panic("child boom")
		})
		p.Sleep(Second)
	})
	_ = e.Run()
	t.Error("Run returned instead of panicking")
}
