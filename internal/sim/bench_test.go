package sim

import "testing"

// BenchmarkEngineEventDispatch measures the per-event cost of the
// calendar: a single self-rescheduling event chain dispatched b.N times.
// With no tracer attached this is the uninstrumented hot path; the
// allocation report guards against observability hooks adding per-event
// allocations.
func BenchmarkEngineEventDispatch(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(Nanosecond, step)
		}
	}
	e.At(0, step)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if n != b.N {
		b.Fatalf("dispatched %d of %d events", n, b.N)
	}
}

// BenchmarkEngineCalendarDepth measures dispatch cost with many timers
// outstanding: each iteration pops the earliest of `depth` pending
// events and pushes a replacement, so every sift traverses a full
// 4-ary heap rather than the trivial 1-element calendar above.
func BenchmarkEngineCalendarDepth(b *testing.B) {
	const depth = 1024
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(Time(depth)*Microsecond, step)
		}
	}
	for i := 0; i < depth; i++ {
		e.At(Time(i)*Microsecond, step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if n < b.N {
		b.Fatalf("dispatched %d of %d events", n, b.N)
	}
}

// BenchmarkEngineCalendarDepth100k is the same replace-the-minimum
// pattern at 10^5 pending events — the calendar population of a run
// with ~10^5 processes each holding a pending wake-up. It pins the deep-heap sift
// cost that the 1024-deep benchmark above is too shallow to see;
// benchguard guards it alongside the dispatch hot path.
func BenchmarkEngineCalendarDepth100k(b *testing.B) {
	const depth = 100_000
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(Time(depth)*Microsecond, step)
		}
	}
	for i := 0; i < depth; i++ {
		e.At(Time(i)*Microsecond, step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if n < b.N {
		b.Fatalf("dispatched %d of %d events", n, b.N)
	}
}

// BenchmarkProcSleep measures a full park/unpark round trip: the
// coroutine switch plus the wake event, which dominates every
// device-service and think-time wait in a workload run.
func BenchmarkProcSleep(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceContention measures acquire/release on a capacity-1
// resource fought over by four processes, so most acquires enqueue the
// proc and every release hands off to a waiter — the device-queue
// pattern that dominates the disk and server models.
func BenchmarkResourceContention(b *testing.B) {
	const procs = 4
	e := NewEngine(1)
	r := e.NewResource("bench", 1)
	each := b.N / procs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < procs; i++ {
		e.Spawn("worker", func(p *Proc) {
			for j := 0; j < each; j++ {
				r.Acquire(p)
				p.Sleep(Nanosecond)
				r.Release()
			}
		})
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if got, want := r.Acquires(), uint64(procs*each); got != want {
		b.Fatalf("acquires = %d, want %d", got, want)
	}
}

// BenchmarkResourceAcquireRelease measures an uncontended acquire/release
// pair on a capacity-1 resource from inside a simulation process.
func BenchmarkResourceAcquireRelease(b *testing.B) {
	e := NewEngine(1)
	r := e.NewResource("bench", 1)
	e.Spawn("bench", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Acquire(p)
			r.Release()
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if got := r.Acquires(); got != uint64(b.N) {
		b.Fatalf("acquires = %d, want %d", got, b.N)
	}
}
