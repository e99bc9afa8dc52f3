package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"bps/internal/sim"
)

// TestSamplerSyntheticWorkload drives a known workload — a process that
// increments a counter once per 10 ms for 100 ms — under a 10 ms sampler
// and checks every emitted sample's timestamp and value.
func TestSamplerSyntheticWorkload(t *testing.T) {
	const tick = 10 * sim.Millisecond
	e := sim.NewEngine(1)
	o := Attach(e, Options{SampleEvery: tick})
	c := o.Registry().Counter("test/proc/steps")
	got := captureSamples(o.sampler)
	e.Spawn("worker", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(tick)
			c.Add(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()

	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	steps := got["test/proc/steps"]
	if len(steps) != 10 {
		t.Fatalf("samples = %d, want 10 (%v)", len(steps), steps)
	}
	for i, sm := range steps {
		wantT := sim.Time(i+1) * tick
		if sm.at != wantT {
			t.Fatalf("sample %d at %v, want %v", i, sm.at, wantT)
		}
		// The sampler daemon was spawned before the worker, so at each
		// shared timestamp it samples before the worker's increment runs:
		// tick i+1 sees i completed increments.
		if sm.v != float64(i) {
			t.Fatalf("sample %d = %v, want %v", i, sm.v, float64(i))
		}
	}
}

// TestSamplerNeverExtendsRun checks that the background sampler daemon
// does not keep the calendar alive: the run ends exactly when the last
// foreground event does.
func TestSamplerNeverExtendsRun(t *testing.T) {
	e := sim.NewEngine(1)
	Attach(e, Options{SampleEvery: sim.Millisecond})
	e.Spawn("worker", func(p *sim.Proc) { p.Sleep(7 * sim.Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 7*sim.Millisecond {
		t.Fatalf("run ended at %v, want 7ms", e.Now())
	}
	e.Shutdown()
}

// TestTraceEventJSONRoundTrip pushes a TraceFile through encoding/json
// and back.
func TestTraceEventJSONRoundTrip(t *testing.T) {
	in := TraceFile{
		DisplayTimeUnit: "ns",
		TraceEvents: []Event{
			{Name: "process_name", Phase: PhaseMetadata, PID: SimPID,
				Args: map[string]any{"name": "sim"}},
			{Name: "hdd read", Cat: "device", Phase: PhaseComplete,
				TS: 1.5, Dur: 42.25, PID: SimPID, TID: 3,
				Args: map[string]any{"size": 4096.0}},
			{Name: "resource in_use", Cat: "counter", Phase: PhaseCounter,
				TS: 2, PID: SimPID, Args: map[string]any{"value": 1.0}},
		},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out TraceFile
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

// TestTraceBufferWrite exercises the span/counter/app paths and checks
// the written JSON decodes with consistent nesting metadata.
func TestTraceBufferWrite(t *testing.T) {
	e := sim.NewEngine(1)
	o := Attach(e, Options{ChromeTrace: true})
	e.Spawn("worker", func(p *sim.Proc) {
		sp := o.Begin(p, "device", "hdd read", map[string]any{"size": 512})
		p.Sleep(3 * sim.Microsecond)
		sp.End()
		o.buf.counter("queue", o.now(), 2)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	o.AddAppRecord(7, 8, 0, 5*sim.Microsecond)

	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f TraceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("written trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var span, counter, app, threadNames int
	for _, ev := range f.TraceEvents {
		switch {
		case ev.Phase == PhaseComplete && ev.Cat == "device":
			span++
			if ev.Dur != 3 { // 3 µs
				t.Fatalf("span dur = %v µs, want 3", ev.Dur)
			}
		case ev.Phase == PhaseCounter:
			counter++
		case ev.Phase == PhaseComplete && ev.Cat == "app":
			app++
			if ev.PID != AppPID || ev.TID != 7 {
				t.Fatalf("app span on pid/tid %d/%d", ev.PID, ev.TID)
			}
		case ev.Phase == PhaseMetadata && ev.Name == "thread_name":
			threadNames++
		}
	}
	if span != 1 || counter != 1 || app != 1 || threadNames != 2 {
		t.Fatalf("span/counter/app/threads = %d/%d/%d/%d", span, counter, app, threadNames)
	}
}

// TestNilObserver checks the whole nil no-op surface.
func TestNilObserver(t *testing.T) {
	var o *Observer
	if o.Tracing() || o.Registry() != nil || o.TraceBuffer() != nil {
		t.Fatal("nil observer reported attached state")
	}
	sp := o.Begin(nil, "device", "x", nil)
	if sp.ok || sp.layer > 0 {
		t.Fatal("nil observer opened a span")
	}
	sp.End()
	o.AddAppRecord(1, 1, 0, 1)
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatalf("nil observer trace output = %q", buf.String())
	}
}

// TestGet checks observer discovery through the engine.
func TestGet(t *testing.T) {
	e := sim.NewEngine(1)
	if Get(e) != nil {
		t.Fatal("unobserved engine returned an observer")
	}
	o := Attach(e, Options{})
	if Get(e) != o {
		t.Fatal("Get did not return the attached observer")
	}
}
