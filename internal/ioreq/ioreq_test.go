package ioreq

import (
	"errors"
	"testing"

	"bps/internal/obs"
	"bps/internal/sim"
)

// runProc runs body inside one simulated process to completion.
func runProc(t *testing.T, e *sim.Engine, body func(p *sim.Proc)) {
	t.Helper()
	e.Spawn("test", body)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChainOrderSkipsNil(t *testing.T) {
	var order []string
	mw := func(name string) Middleware {
		return func(next Layer) Layer {
			return Func(func(p *sim.Proc, req *Request) error {
				order = append(order, name)
				return next.Serve(p, req)
			})
		}
	}
	base := Func(func(p *sim.Proc, req *Request) error {
		order = append(order, "base")
		return nil
	})
	l := Chain(base, mw("a"), nil, mw("b"))
	if err := l.Serve(nil, &Request{}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "base"}
	if len(order) != len(want) {
		t.Fatalf("serve order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("serve order %v, want %v", order, want)
		}
	}
}

func TestRequestIdentity(t *testing.T) {
	e := sim.NewEngine(1)
	r1 := New(e, OpRead, 0, 100, "f")
	r2 := New(e, OpWrite, 0, 100, "f")
	if r1.ID == 0 || r2.ID != r1.ID+1 {
		t.Fatalf("request IDs %d, %d: want fresh monotonic IDs", r1.ID, r2.ID)
	}
	if r1.PID != -1 || r1.Stripe != -1 {
		t.Fatalf("defaults PID=%d Stripe=%d, want -1/-1", r1.PID, r1.Stripe)
	}
	r1.PID = 7
	r1.SetTag("k", "v")
	c := r1.Child(64, 32)
	if c.ID != r1.ID || c.PID != 7 || c.File != "f" || c.Tag("k") != "v" {
		t.Fatalf("child lost identity: %+v", c)
	}
	if c.Off != 64 || c.Size != 32 || c.End() != 96 {
		t.Fatalf("child range [%d,%d)", c.Off, c.End())
	}
	if r1.Off != 0 || r1.Size != 100 {
		t.Fatalf("child mutated parent: %+v", r1)
	}
}

func TestRequestValidate(t *testing.T) {
	r := &Request{Op: OpRead, Off: 0, Size: 100}
	if err := r.Validate(100); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*Request{
		{Op: OpRead, Off: 0, Size: 0},
		{Op: OpRead, Off: -1, Size: 10},
		{Op: OpWrite, Off: 96, Size: 10},
	} {
		if err := bad.Validate(100); err == nil {
			t.Fatalf("Validate accepted %+v", bad)
		}
	}
}

func TestLRUEvictionAndCounters(t *testing.T) {
	c := NewLRU(2)
	c.Insert(1)
	c.Insert(2)
	if !c.Lookup(1) { // 1 becomes most recent
		t.Fatal("missing key 1")
	}
	c.Insert(3) // evicts 2
	if c.Contains(2) {
		t.Fatal("LRU kept the least-recent key")
	}
	if !c.Contains(1) || !c.Contains(3) || c.Len() != 2 {
		t.Fatalf("unexpected contents, len=%d", c.Len())
	}
	if c.Lookup(2) {
		t.Fatal("evicted key still hits")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c.Hits(), c.Misses())
	}
	c.Reset()
	if c.Len() != 0 || c.Hits() != 1 {
		t.Fatal("Reset must drop keys but keep counters")
	}
}

func TestRetryRecoversAndGivesUp(t *testing.T) {
	e := sim.NewEngine(1)
	failErr := errors.New("transient")
	var fails int
	var attempts []int
	flaky := Func(func(p *sim.Proc, req *Request) error {
		attempts = append(attempts, req.Attempt)
		if fails > 0 {
			fails--
			return failErr
		}
		return nil
	})
	l := Chain(flaky, Retry(e, RetryConfig{MaxRetries: 3}))
	runProc(t, e, func(p *sim.Proc) {
		fails = 2
		start := p.Now()
		if err := l.Serve(p, &Request{Op: OpRead, Size: 1}); err != nil {
			t.Errorf("retry did not recover: %v", err)
		}
		if p.Now() == start {
			t.Error("retries slept no backoff time")
		}
		if len(attempts) != 3 || attempts[2] != 2 {
			t.Errorf("attempts = %v, want [0 1 2]", attempts)
		}

		attempts = nil
		fails = 10 // more than the budget
		if err := l.Serve(p, &Request{Op: OpRead, Size: 1}); !errors.Is(err, failErr) {
			t.Errorf("exhausted retry returned %v, want the layer error", err)
		}
		if len(attempts) != 4 { // first try + MaxRetries
			t.Errorf("exhausted retry made %d attempts, want 4", len(attempts))
		}
	})
}

func TestRetryIfFiltersErrors(t *testing.T) {
	e := sim.NewEngine(1)
	fatal := errors.New("fatal")
	var calls int
	l := Chain(
		Func(func(p *sim.Proc, req *Request) error { calls++; return fatal }),
		Retry(e, RetryConfig{MaxRetries: 3, RetryIf: func(err error) bool { return !errors.Is(err, fatal) }}),
	)
	runProc(t, e, func(p *sim.Proc) {
		if err := l.Serve(p, &Request{}); !errors.Is(err, fatal) {
			t.Errorf("err = %v", err)
		}
	})
	if calls != 1 {
		t.Fatalf("non-retryable error was tried %d times, want 1", calls)
	}
}

func TestStatsCountsIntoRegistry(t *testing.T) {
	e := sim.NewEngine(1)
	ob := obs.Attach(e, obs.Options{})
	boom := errors.New("boom")
	var fail bool
	l := Chain(
		Func(func(p *sim.Proc, req *Request) error {
			if fail {
				return boom
			}
			return nil
		}),
		Stats(e, "ioreq/test"),
	)
	runProc(t, e, func(p *sim.Proc) {
		_ = l.Serve(p, &Request{Op: OpRead, Size: 100})
		fail = true
		_ = l.Serve(p, &Request{Op: OpRead, Size: 28})
	})
	reg := ob.Registry()
	if v := reg.Counter("ioreq/test/requests").Value(); v != 2 {
		t.Fatalf("requests = %d, want 2", v)
	}
	if v := reg.Counter("ioreq/test/bytes").Value(); v != 128 {
		t.Fatalf("bytes = %d, want 128", v)
	}
	if v := reg.Counter("ioreq/test/errors").Value(); v != 1 {
		t.Fatalf("errors = %d, want 1", v)
	}
}

func TestTraceSpansCarryRequestID(t *testing.T) {
	e := sim.NewEngine(1)
	ob := obs.Attach(e, obs.Options{ChromeTrace: true})
	inner := Chain(
		Func(func(p *sim.Proc, req *Request) error { p.Sleep(sim.Microsecond); return nil }),
		Trace(e, "test", "inner"),
	)
	l := Chain(inner, Trace(e, "test", "outer"))
	var id uint64
	runProc(t, e, func(p *sim.Proc) {
		req := New(e, OpRead, 0, 4096, "f")
		id = req.ID
		prev := p.Ctx()
		p.SetCtx(req)
		defer p.SetCtx(prev)
		if err := l.Serve(p, req); err != nil {
			t.Error(err)
		}
	})
	var spans int
	for _, ev := range ob.TraceBuffer().Events() {
		if ev.Cat != "test" {
			continue
		}
		spans++
		if got, ok := ev.Args["req"].(uint64); !ok || got != id {
			t.Fatalf("span %q args = %v, want req=%d", ev.Name, ev.Args, id)
		}
		if ev.Args["op"] != "read" || ev.Args["size"] != int64(4096) {
			t.Fatalf("span %q args = %v", ev.Name, ev.Args)
		}
	}
	if spans != 2 {
		t.Fatalf("recorded %d spans, want outer+inner", spans)
	}
}
