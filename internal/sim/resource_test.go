package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceSerializes(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("disk", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * Millisecond)
			r.Release()
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * Millisecond, 20 * Millisecond, 30 * Millisecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.BusyTime() != 30*Millisecond {
		t.Fatalf("busy = %v, want 30ms", r.BusyTime())
	}
	if r.Acquires() != 3 {
		t.Fatalf("acquires = %d, want 3", r.Acquires())
	}
}

func TestResourceCapacityParallelism(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("ssd", 2)
	var last Time
	for i := 0; i < 4; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * Millisecond)
			r.Release()
			last = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Four 10ms jobs on capacity 2 finish in two waves: 20ms total.
	if last != 20*Millisecond {
		t.Fatalf("last completion = %v, want 20ms", last)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("disk", 1)
	var order []string
	for _, name := range []string{"a", "b", "c", "d"} {
		n := name
		e.Spawn(n, func(p *Proc) {
			r.Acquire(p)
			order = append(order, n)
			p.Sleep(Millisecond)
			r.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range []string{"a", "b", "c", "d"} {
		if order[i] != n {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("disk", 1)
	e.Spawn("p", func(p *Proc) {
		if !r.TryAcquire() {
			t.Error("TryAcquire on idle resource failed")
		}
		if r.TryAcquire() {
			t.Error("TryAcquire on full resource succeeded")
		}
		r.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("disk", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceUse(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("disk", 1)
	e.Spawn("p", func(p *Proc) {
		r.Use(p, func() {
			if r.InUse() != 1 {
				t.Errorf("InUse inside Use = %d, want 1", r.InUse())
			}
			p.Sleep(Millisecond)
		})
		if r.InUse() != 0 {
			t.Errorf("InUse after Use = %d, want 0", r.InUse())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	q := e.NewQueue()
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p).(int))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Millisecond)
			q.Put(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("queue order = %v", got)
		}
	}
	if q.MaxLen() != 1 {
		t.Fatalf("MaxLen = %d, want 1", q.MaxLen())
	}
}

// TestQueueWakeAllocs pins the parked-getter path: a Put waking a
// parked Get, repeated, allocates nothing once the queue has grown.
func TestQueueWakeAllocs(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	q := e.NewQueue()
	var item interface{} = struct{}{}
	got := 0
	e.Spawn("getter", func(p *Proc) {
		for {
			q.Get(p)
			got++
		}
	})
	e.Spawn("putter", func(p *Proc) {
		for {
			p.Sleep(Millisecond)
			q.Put(item)
		}
	})
	step := func() {
		if err := e.RunUntil(e.Now() + Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("Put waking a parked Get: %v allocs/op, want 0", allocs)
	}
	if got != 1001 {
		t.Fatalf("getter took %d items, want 1001", got)
	}
}

func TestQueueBuffered(t *testing.T) {
	e := NewEngine(1)
	q := e.NewQueue()
	q.Put("x")
	q.Put("y")
	var got []string
	e.Spawn("c", func(p *Proc) {
		got = append(got, q.Get(p).(string), q.Get(p).(string))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != "x" || got[1] != "y" {
		t.Fatalf("got %v", got)
	}
}

// Property: for any set of job durations on a capacity-1 resource, the
// makespan equals the sum of durations (full serialization) and the
// resource's busy time equals the makespan.
func TestResourceSerializationProperty(t *testing.T) {
	prop := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 64 {
			durs = durs[:64]
		}
		e := NewEngine(1)
		r := e.NewResource("disk", 1)
		var sum Time
		for _, d := range durs {
			dur := Time(d) + 1 // ≥ 1ns
			sum += dur
			e.Spawn("job", func(p *Proc) {
				r.Acquire(p)
				p.Sleep(dur)
				r.Release()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return e.Now() == sum && r.BusyTime() == sum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: on a capacity-c resource, makespan of n equal jobs of duration
// d is ceil(n/c)*d.
func TestResourceWavesProperty(t *testing.T) {
	prop := func(n, c uint8, d uint16) bool {
		jobs := int(n%32) + 1
		capn := int(c%4) + 1
		dur := Time(d) + 1
		e := NewEngine(1)
		r := e.NewResource("res", capn)
		for i := 0; i < jobs; i++ {
			e.Spawn("job", func(p *Proc) {
				r.Acquire(p)
				p.Sleep(dur)
				r.Release()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		waves := Time((jobs + capn - 1) / capn)
		return e.Now() == waves*dur
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceAcquireN(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("channels", 4)
	var order []string
	// a takes 3 units for 10ms; b wants 2 and must wait even though c (1
	// unit) would fit — strict FIFO.
	e.Spawn("a", func(p *Proc) {
		r.AcquireN(p, 3)
		order = append(order, "a")
		p.Sleep(10 * Millisecond)
		r.ReleaseN(3)
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(Millisecond)
		r.AcquireN(p, 2)
		order = append(order, "b")
		p.Sleep(10 * Millisecond)
		r.ReleaseN(2)
	})
	e.Spawn("c", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		r.AcquireN(p, 1)
		order = append(order, "c")
		r.ReleaseN(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (strict FIFO)", order, want)
		}
	}
}

func TestResourceAcquireNOutOfRangePanics(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("x", 2)
	e.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("AcquireN(3) on cap-2 resource did not panic")
			}
		}()
		r.AcquireN(p, 3)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
