package obs

import (
	"encoding/json"
	"io"
	"strconv"

	"bps/internal/sim"
)

// Chrome trace-event phases used by the exporter (a subset of the
// Trace Event Format that Perfetto and chrome://tracing accept).
const (
	PhaseComplete = "X" // a span with ts + dur
	PhaseCounter  = "C" // a counter sample
	PhaseMetadata = "M" // process/thread naming
)

// Synthetic Chrome process IDs used to group the timeline: all simulator
// activity (device, net, pfs spans and counters) lives under SimPID with
// one thread per simulation process, and application trace records live
// under AppPID with one thread per application PID.
const (
	SimPID = 1
	AppPID = 2
)

// Event is one Chrome trace event. Timestamps and durations are in
// microseconds, per the Trace Event Format; fractional values carry the
// simulator's nanosecond precision.
type Event struct {
	Name  string         `json:"name,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int64          `json:"pid"`
	TID   int64          `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// TraceFile is the JSON-object form of a Chrome trace.
type TraceFile struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit,omitempty"`
}

// usOf converts simulated nanoseconds to trace microseconds.
func usOf(t sim.Time) float64 { return float64(t) / 1e3 }

// TraceBuffer accumulates Chrome trace events during a run.
type TraceBuffer struct {
	events  []Event
	tids    map[*sim.Proc]int64
	nextTID int64
	appTIDs map[int64]bool
}

// NewTraceBuffer returns an empty buffer.
func NewTraceBuffer() *TraceBuffer {
	b := &TraceBuffer{tids: make(map[*sim.Proc]int64), appTIDs: make(map[int64]bool)}
	b.events = append(b.events,
		metaEvent(SimPID, 0, "process_name", "sim"),
		metaEvent(AppPID, 0, "process_name", "app"))
	return b
}

func metaEvent(pid, tid int64, name, value string) Event {
	return Event{Name: name, Phase: PhaseMetadata, PID: pid, TID: tid,
		Args: map[string]any{"name": value}}
}

// Events returns the buffered events.
func (b *TraceBuffer) Events() []Event {
	if b == nil {
		return nil
	}
	return b.events
}

// tid returns the Chrome thread ID for a simulation process, naming the
// thread on first use.
func (b *TraceBuffer) tid(p *sim.Proc) int64 {
	if id, ok := b.tids[p]; ok {
		return id
	}
	b.nextTID++
	id := b.nextTID
	b.tids[p] = id
	b.events = append(b.events, metaEvent(SimPID, id, "thread_name", p.Name()))
	return id
}

// span opens a complete ("X") event at start with an unresolved
// duration, returning its index.
func (b *TraceBuffer) span(p *sim.Proc, cat, name string, start sim.Time, args map[string]any) int {
	b.events = append(b.events, Event{
		Name: name, Cat: cat, Phase: PhaseComplete,
		TS: usOf(start), PID: SimPID, TID: b.tid(p), Args: args,
	})
	return len(b.events) - 1
}

// counter appends a counter ("C") sample.
func (b *TraceBuffer) counter(name string, at sim.Time, v float64) {
	b.events = append(b.events, Event{
		Name: name, Cat: "counter", Phase: PhaseCounter,
		TS: usOf(at), PID: SimPID,
		Args: map[string]any{"value": v},
	})
}

// AppSpan appends an application-layer access span (one BPS trace
// record) under the "app" process, one thread per application PID.
func (b *TraceBuffer) AppSpan(pid, blocks int64, start, end sim.Time) {
	if b == nil {
		return
	}
	if !b.appTIDs[pid] {
		b.appTIDs[pid] = true
		b.events = append(b.events, metaEvent(AppPID, pid, "thread_name", appThreadName(pid)))
	}
	b.events = append(b.events, Event{
		Name: "access", Cat: "app", Phase: PhaseComplete,
		TS: usOf(start), Dur: usOf(end - start),
		PID: AppPID, TID: pid,
		Args: map[string]any{"blocks": blocks},
	})
}

func appThreadName(pid int64) string { return "pid " + strconv.FormatInt(pid, 10) }

// Write emits the buffer as a Chrome trace-event JSON object, loadable
// in Perfetto or chrome://tracing.
func (b *TraceBuffer) Write(w io.Writer) error {
	f := TraceFile{TraceEvents: b.Events(), DisplayTimeUnit: "ns"}
	if f.TraceEvents == nil {
		f.TraceEvents = []Event{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// Span is a handle to an open trace span; the zero value (from a nil or
// trace-disabled observer) is inert. A span may record into the Chrome
// trace buffer (ok), into the attribution profiler (layer > 0), or both.
type Span struct {
	o     *Observer
	idx   int
	ok    bool
	layer int      // attribution StackOrder index + 1; 0 = none
	start sim.Time // span open time (attribution only)
}

// End closes the span at the current simulated time.
func (s Span) End() {
	if s.o == nil {
		return
	}
	if s.ok {
		ev := &s.o.buf.events[s.idx]
		ev.Dur = usOf(s.o.eng.Now()) - ev.TS
	}
	if s.layer > 0 {
		s.o.attrib.AddSpan(s.layer-1, s.start, s.o.eng.Now())
	}
}
