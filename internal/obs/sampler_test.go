package obs

import (
	"reflect"
	"testing"

	"bps/internal/sim"
)

// sample is one value the sampler emitted for a source.
type sample struct {
	at sim.Time
	v  float64
}

// captureSamples installs an onSample consumer on s that records the
// stream emitted for every source, by name.
func captureSamples(s *Sampler) map[string][]sample {
	got := make(map[string][]sample)
	s.onSample = func(name string, at sim.Time, v float64) {
		got[name] = append(got[name], sample{at, v})
	}
	return got
}

// TestSamplerFinishCoversTail: the daemon's pending tick after the last
// foreground event never fires, so without Finish the stream stops one
// interval early. Finish takes the final sample at run end.
func TestSamplerFinishCoversTail(t *testing.T) {
	const tick = 2 * sim.Millisecond
	e := sim.NewEngine(1)
	o := Attach(e, Options{SampleEvery: tick})
	c := o.Registry().Counter("test/tail/steps")
	got := captureSamples(o.sampler)
	const name = "test/tail/steps"
	e.Spawn("worker", func(p *sim.Proc) {
		p.Sleep(7 * sim.Millisecond)
		c.Add(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()

	// Ticks at 2, 4, 6 ms; the 8 ms tick is past run end and never fires.
	if len(got[name]) != 3 {
		t.Fatalf("pre-finish samples = %v, want 3", got[name])
	}
	if got[name][2] != (sample{6 * sim.Millisecond, 0}) {
		t.Fatalf("tick at 6ms = %v, want (6ms, 0)", got[name][2])
	}

	o.FinishSampling()
	if len(got[name]) != 4 {
		t.Fatalf("post-finish samples = %v, want 4", got[name])
	}
	if got[name][3] != (sample{7 * sim.Millisecond, 1}) {
		t.Fatalf("final sample = %v, want (7ms, 1)", got[name][3])
	}

	// Finish is idempotent: a second call at the same time adds nothing.
	o.FinishSampling()
	if len(got[name]) != 4 {
		t.Fatalf("repeated finish emitted %v", got[name])
	}
}

// TestSamplerGapFill: a sample arriving more than one interval after
// the previous one is preceded by carry-forward fillers at the sampling
// interval, so every stream stays continuous through quiet stretches.
func TestSamplerGapFill(t *testing.T) {
	const tick = 2 * sim.Millisecond
	e := sim.NewEngine(1)
	r := NewRegistry()
	s := r.StartSampler(e, tick)
	v := 5.0
	r.Probe("test/gap/value", func() float64 { return v })
	got := captureSamples(s)

	s.sample(2 * sim.Millisecond)
	v = 9
	s.sample(11 * sim.Millisecond) // 9 ms of silence: fillers at 4, 6, 8, 10

	wantTimes := []sim.Time{2, 4, 6, 8, 10, 11}
	wantVals := []float64{5, 5, 5, 5, 5, 9}
	gap := got["test/gap/value"]
	if len(gap) != len(wantTimes) {
		t.Fatalf("samples = %v, want %d", gap, len(wantTimes))
	}
	for i, sm := range gap {
		if want := (sample{wantTimes[i] * sim.Millisecond, wantVals[i]}); sm != want {
			t.Fatalf("sample %d = %v, want %v", i, sm, want)
		}
	}
}

// TestSamplerLateSourceStartsAtFirstTick: a source registered after the
// sampler has run gets no fillers before its first tick, and a
// registration (which rebuilds the bound sources) keeps the earlier
// sources' last samples, so their gap fill still continues from them.
func TestSamplerLateSourceStartsAtFirstTick(t *testing.T) {
	const ms = sim.Millisecond
	r := NewRegistry()
	s := r.StartSampler(sim.NewEngine(1), ms)
	got := captureSamples(s)
	r.Probe("test/late/early", func() float64 { return 3 })
	s.sample(1 * ms)
	r.Probe("test/late/late", func() float64 { return 7 })
	s.sample(4 * ms)

	if want := []sample{{1 * ms, 3}, {2 * ms, 3}, {3 * ms, 3}, {4 * ms, 3}}; !reflect.DeepEqual(got["test/late/early"], want) {
		t.Fatalf("early source emitted %v, want %v", got["test/late/early"], want)
	}
	if want := []sample{{4 * ms, 7}}; !reflect.DeepEqual(got["test/late/late"], want) {
		t.Fatalf("late source emitted %v, want %v", got["test/late/late"], want)
	}
}

// TestSamplerRetainsNoSeries: the sampler streams its samples instead
// of storing them, so ticking it allocates nothing once its sources are
// bound — 10k ticks with gaps and an onSample consumer included.
func TestSamplerRetainsNoSeries(t *testing.T) {
	const tick = sim.Millisecond
	r := NewRegistry()
	for _, name := range []string{"test/mem/a", "test/mem/b", "test/mem/c"} {
		r.Counter(name).Add(1)
	}
	r.Probe("test/mem/g", func() float64 { return 2 })
	r.Probe("test/mem/p", func() float64 { return 3 })
	s := r.StartSampler(sim.NewEngine(1), tick)
	emitted := 0
	s.onSample = func(string, sim.Time, float64) { emitted++ }
	now := tick
	s.sample(now) // binds the sources

	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10000; i++ {
			now += tick
			if i%100 == 0 {
				now += 5 * tick // a quiet stretch: five fillers per source
			}
			s.sample(now)
		}
	})
	if allocs != 0 {
		t.Fatalf("10k sampler ticks allocated %v times, want 0", allocs)
	}
	// Every source's stream is continuous at the interval from 1 ms on.
	if want := 5 * int(now/tick); emitted != want {
		t.Fatalf("emitted %d samples, want %d (5 sources × every ms to %v)", emitted, want, now)
	}
}

// TestSamplerFinishNilSafe: nil observers and samplers absorb Finish.
func TestSamplerFinishNilSafe(t *testing.T) {
	var o *Observer
	o.FinishSampling() // must not panic
	var s *Sampler
	s.Finish(5) // must not panic
	e := sim.NewEngine(1)
	unsampled := Attach(e, Options{})
	unsampled.FinishSampling() // sampler disabled: no-op
}
