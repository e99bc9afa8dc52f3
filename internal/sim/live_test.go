package sim

import (
	"sync"
	"testing"
)

// stubClock is a LiveClock with a manually advanced cursor.
type stubClock struct{ cur Time }

func (c *stubClock) Now() Time      { return c.cur }
func (c *stubClock) Sleep(d Time)   { c.cur += d }
func (c *stubClock) advance(d Time) { c.cur += d }

func TestLiveProcClock(t *testing.T) {
	exec := NewLiveExec(NewEngine(1))
	c := &stubClock{}
	p := exec.NewProc("w0", c, 7)

	if p.Now() != 0 {
		t.Fatalf("Now = %v, want 0", p.Now())
	}
	c.advance(5 * Millisecond)
	if p.Now() != 5*Millisecond {
		t.Fatalf("Now = %v, want 5ms", p.Now())
	}
	p.Sleep(2 * Millisecond)
	if p.Now() != 7*Millisecond {
		t.Fatalf("Now after Sleep = %v, want 7ms", p.Now())
	}
	if p.Engine() != exec.Engine() {
		t.Fatalf("Engine() is not the executor's engine")
	}
}

func TestLiveProcRandDeterministic(t *testing.T) {
	mk := func() []int64 {
		exec := NewLiveExec(NewEngine(1))
		p := exec.NewProc("w0", &stubClock{}, 42)
		out := make([]int64, 8)
		for i := range out {
			out[i] = p.Rand().Int63()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Rand stream diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Different seeds give different streams.
	exec := NewLiveExec(NewEngine(1))
	q := exec.NewProc("w1", &stubClock{}, 43)
	if q.Rand().Int63() == a[0] {
		t.Fatalf("seed 43 reproduced seed 42's stream")
	}
}

func TestLiveProcRequestIDsUnique(t *testing.T) {
	exec := NewLiveExec(NewEngine(1))
	const workers, per = 8, 1000
	ids := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		p := exec.NewProc("w", &stubClock{}, int64(w))
		wg.Add(1)
		go func(w int, p *Proc) {
			defer wg.Done()
			mine := make([]uint64, per)
			for i := range mine {
				mine[i] = p.NextRequestID()
			}
			ids[w] = mine
		}(w, p)
	}
	wg.Wait()
	seen := make(map[uint64]bool, workers*per)
	for _, mine := range ids {
		for _, id := range mine {
			if seen[id] {
				t.Fatalf("request ID %d minted twice", id)
			}
			seen[id] = true
		}
	}
}

func TestLiveProcEventLoopFacilitiesPanic(t *testing.T) {
	exec := NewLiveExec(NewEngine(1))
	p := exec.NewProc("w0", &stubClock{}, 1)
	cases := map[string]func(){
		"NewFuture": func() { p.NewFuture() },
		"Spawn":     func() { p.Spawn("child", func(*Proc) {}) },
		"At":        func() { p.At(Millisecond, func() {}) },
		"After":     func() { p.After(Millisecond, func() {}) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on a live proc", name)
				}
			}()
			fn()
		})
	}
}

// TestEngineIsTimeSource pins the obs clock plumbing contract: a
// simulated run's timeline is its engine.
func TestEngineIsTimeSource(t *testing.T) {
	var ts TimeSource = NewEngine(1)
	if ts.Now() != 0 {
		t.Fatalf("fresh engine Now = %v", ts.Now())
	}
}
