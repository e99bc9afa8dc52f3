// Package ingest imports real-world I/O logs into the simulated stack.
// The accepted format is modeled on Darshan instrumentation output: a
// log is a set of per-rank counter records (POSIX_READS,
// POSIX_BYTES_READ, ... — the module counters Darshan aggregates per
// file) plus timestamped read/write segments (rank, file, offset,
// length, start, end — the records Darshan's extended tracing emits per
// access). Segments alone fully determine a replay; counters, when
// present, cross-check the segment list so truncated or corrupted logs
// are rejected instead of silently replayed short.
//
// Ingestion is deterministic end to end: parsing normalizes timestamps
// against the log's earliest access and converts float seconds to
// integer simulated nanoseconds with one fixed rounding rule, the
// segment order is made total by an explicit sort, and the reconstructed
// access stream feeds the same middleware/testbed path every synthetic
// workload uses — so one log replayed twice produces bit-identical
// traces, window series, and forecasts.
package ingest

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode/utf8"

	"bps/internal/ioreq"
	"bps/internal/sim"
	"bps/internal/trace"
	"bps/internal/workload"
)

// Segment is one timestamped I/O segment of a log: rank r performed op
// on [Offset, Offset+Length) of File during [Start, End] seconds.
type Segment struct {
	Rank   int64
	File   string
	Op     ioreq.Op
	Offset int64
	Length int64
	Start  float64 // seconds since log start
	End    float64
}

// Counter is one per-rank per-file module counter record.
type Counter struct {
	Rank  int64
	File  string
	Name  string
	Value int64
}

// Counter names the validator cross-checks against the segment list.
// Any other name is carried but not interpreted.
const (
	CounterReads        = "POSIX_READS"
	CounterWrites       = "POSIX_WRITES"
	CounterBytesRead    = "POSIX_BYTES_READ"
	CounterBytesWritten = "POSIX_BYTES_WRITTEN"
)

// Log is one parsed Darshan-style log.
type Log struct {
	Segments []Segment
	Counters []Counter
}

// Append merges another log into l (multiple log files of one job).
func (l *Log) Append(other *Log) {
	l.Segments = append(l.Segments, other.Segments...)
	l.Counters = append(l.Counters, other.Counters...)
}

// Len returns the number of segments.
func (l *Log) Len() int { return len(l.Segments) }

// sortSegments makes the segment order total and deterministic
// regardless of input file order.
func (l *Log) sortSegments() {
	sort.SliceStable(l.Segments, func(i, j int) bool {
		a, b := l.Segments[i], l.Segments[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Offset < b.Offset
	})
}

// maxSeconds bounds segment times so that they convert to simulated
// time (int64 nanoseconds, about 292 years) without overflow.
const maxSeconds = 9e9

// Validate checks segment sanity (positive lengths, end ≥ start within
// [0, maxSeconds], extents that fit in int64, file names that are one
// line of UTF-8, so both encodings carry them unchanged) and, when the
// recognized per-rank counters are present, cross-checks them against
// the segment list: operation counts and byte totals must match
// exactly, so a log whose trace was truncated relative to its counters
// is rejected.
func (l *Log) Validate() error {
	if len(l.Segments) == 0 {
		return fmt.Errorf("ingest: log has no segments")
	}
	for i, s := range l.Segments {
		switch {
		case s.Length <= 0:
			return fmt.Errorf("ingest: segment %d: length %d must be positive", i, s.Length)
		case s.Offset < 0 || s.Offset > math.MaxInt64-s.Length:
			return fmt.Errorf("ingest: segment %d: offset %d out of range", i, s.Offset)
		case !(s.Start >= 0 && s.End >= s.Start && s.End <= maxSeconds):
			return fmt.Errorf("ingest: segment %d: bad interval [%g, %g]", i, s.Start, s.End)
		case !utf8.ValidString(s.File) || strings.ContainsAny(s.File, "\r\n"):
			return fmt.Errorf("ingest: segment %d: file name %q is not one line of UTF-8", i, s.File)
		}
	}
	type key struct {
		rank int64
		file string
	}
	type sums struct{ reads, writes, bytesRead, bytesWritten int64 }
	got := make(map[key]*sums)
	for _, s := range l.Segments {
		k := key{s.Rank, s.File}
		sm := got[k]
		if sm == nil {
			sm = &sums{}
			got[k] = sm
		}
		if s.Op == ioreq.OpWrite {
			sm.writes++
			sm.bytesWritten += s.Length
		} else {
			sm.reads++
			sm.bytesRead += s.Length
		}
	}
	for _, c := range l.Counters {
		sm := got[key{c.Rank, c.File}]
		var have int64
		switch c.Name {
		case CounterReads:
			if sm != nil {
				have = sm.reads
			}
		case CounterWrites:
			if sm != nil {
				have = sm.writes
			}
		case CounterBytesRead:
			if sm != nil {
				have = sm.bytesRead
			}
		case CounterBytesWritten:
			if sm != nil {
				have = sm.bytesWritten
			}
		default:
			continue // unrecognized counters are carried, not checked
		}
		if have != c.Value {
			return fmt.Errorf("ingest: rank %d file %q: %s = %d but segments sum to %d",
				c.Rank, c.File, c.Name, c.Value, have)
		}
	}
	return nil
}

// origin returns the earliest segment start.
func (l *Log) origin() float64 {
	o := l.Segments[0].Start
	for _, s := range l.Segments[1:] {
		if s.Start < o {
			o = s.Start
		}
	}
	return o
}

// Records converts the log into the paper's 32-byte records — pid,
// required blocks, start, end — normalized so the earliest access
// starts at simulated time 0. This is the post-hoc path: metrics and
// timelines straight from the log, no simulation.
func (l *Log) Records() []trace.Record {
	if len(l.Segments) == 0 {
		return nil
	}
	l.sortSegments()
	base := l.origin()
	out := make([]trace.Record, len(l.Segments))
	for i, s := range l.Segments {
		out[i] = trace.Record{
			PID:    s.Rank,
			Blocks: trace.BlocksOf(s.Length),
			Start:  sim.FromSeconds(s.Start - base),
			End:    sim.FromSeconds(s.End - base),
		}
	}
	return out
}

// Accesses reconstructs the offset-aware access stream for replay: one
// workload.Access per segment with a file slot per distinct (rank,
// file) pair, plus the per-slot extents that size the replay env's
// files. Slots are assigned in sorted (rank, file) order, so the
// mapping — and therefore the whole replay — is deterministic.
func (l *Log) Accesses() (accs []workload.Access, extents []int64) {
	if len(l.Segments) == 0 {
		return nil, nil
	}
	l.sortSegments()

	type key struct {
		rank int64
		file string
	}
	keys := make([]key, 0)
	seen := make(map[key]bool)
	for _, s := range l.Segments {
		k := key{s.Rank, s.File}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].file < keys[j].file
	})
	slot := make(map[key]int, len(keys))
	for i, k := range keys {
		slot[k] = i
	}

	base := l.origin()
	accs = make([]workload.Access, len(l.Segments))
	extents = make([]int64, len(keys))
	for i, s := range l.Segments {
		sl := slot[key{s.Rank, s.File}]
		accs[i] = workload.Access{
			PID:   s.Rank,
			Slot:  sl,
			Write: s.Op == ioreq.OpWrite,
			Off:   s.Offset,
			Size:  s.Length,
			Start: sim.FromSeconds(s.Start - base),
			End:   sim.FromSeconds(s.End - base),
		}
		if end := s.Offset + s.Length; end > extents[sl] {
			extents[sl] = end
		}
	}
	return accs, extents
}

// Ranks returns the distinct ranks present, sorted.
func (l *Log) Ranks() []int64 {
	seen := make(map[int64]bool)
	for _, s := range l.Segments {
		seen[s.Rank] = true
	}
	out := make([]int64, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SynthesizeCounters fills in the recognized per-rank counters from the
// segment list — what Darshan's reduction step does at runtime. Useful
// when round-tripping a log that arrived as bare segments.
func (l *Log) SynthesizeCounters() {
	type key struct {
		rank int64
		file string
	}
	type sums struct{ reads, writes, bytesRead, bytesWritten int64 }
	got := make(map[key]*sums)
	var keys []key
	for _, s := range l.Segments {
		k := key{s.Rank, s.File}
		sm := got[k]
		if sm == nil {
			sm = &sums{}
			got[k] = sm
			keys = append(keys, k)
		}
		if s.Op == ioreq.OpWrite {
			sm.writes++
			sm.bytesWritten += s.Length
		} else {
			sm.reads++
			sm.bytesRead += s.Length
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].file < keys[j].file
	})
	l.Counters = l.Counters[:0]
	for _, k := range keys {
		sm := got[k]
		l.Counters = append(l.Counters,
			Counter{k.rank, k.file, CounterReads, sm.reads},
			Counter{k.rank, k.file, CounterWrites, sm.writes},
			Counter{k.rank, k.file, CounterBytesRead, sm.bytesRead},
			Counter{k.rank, k.file, CounterBytesWritten, sm.bytesWritten},
		)
	}
}
