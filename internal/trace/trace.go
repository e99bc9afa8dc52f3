// Package trace implements the BPS paper's measurement methodology
// (§III.B): one 32-byte record per application I/O access — process ID,
// size in blocks, start time, end time — captured at the I/O-middleware
// layer, accumulated per process, then gathered into a global collection
// from which the metrics are computed.
package trace

import (
	"slices"
	"sort"

	"bps/internal/sim"
)

// BlockSize is the I/O block unit the paper counts in: 512 bytes.
const BlockSize = 512

// RecordSize is the encoded size of one record in bytes. The paper's
// overhead analysis (§III.C) assumes 32-byte records: 65535 operations ≈
// 3 MB of trace.
const RecordSize = 32

// Record captures one application I/O access.
type Record struct {
	PID    int64    // issuing process
	Blocks int64    // application-required size in 512-byte blocks
	Start  sim.Time // access start
	End    sim.Time // access end
}

// Duration returns the access response time.
func (r Record) Duration() sim.Time { return r.End - r.Start }

// Bytes returns the required size in bytes.
func (r Record) Bytes() int64 { return r.Blocks * BlockSize }

// BlocksOf converts a byte count to whole 512-byte blocks, rounding up:
// a 1-byte access still occupies one block on a block device.
func BlocksOf(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return (bytes + BlockSize - 1) / BlockSize
}

// Collector accumulates the records of a single process (paper step 1).
// It is not safe for concurrent use; in the simulator each process owns
// its collector, exactly as each MPI process owns its trace buffer.
type Collector struct {
	pid     int64
	records []Record
}

// NewCollector returns a collector for the given process ID.
func NewCollector(pid int64) *Collector {
	return &Collector{pid: pid}
}

// PID returns the process ID the collector records for.
func (c *Collector) PID() int64 { return c.pid }

// Grow reserves room for n more records, so a process that knows its
// access count up front records them without regrowing the slice.
func (c *Collector) Grow(n int) { c.records = slices.Grow(c.records, n) }

// Record appends one access.
func (c *Collector) Record(blocks int64, start, end sim.Time) {
	c.records = append(c.records, Record{PID: c.pid, Blocks: blocks, Start: start, End: end})
}

// Records returns the accumulated records (not a copy).
func (c *Collector) Records() []Record { return c.records }

// Len returns the number of recorded accesses.
func (c *Collector) Len() int { return len(c.records) }

// Global is the gathered cross-process record collection (paper step 2):
// the total block count B and the time collection col_time.
type Global struct {
	records []Record
}

// Gather merges the records of all processes into a global collection,
// in collector order, with one allocation for the merged records.
func Gather(collectors ...*Collector) *Global {
	n := 0
	for _, c := range collectors {
		n += len(c.records)
	}
	g := &Global{}
	if n > 0 {
		g.records = make([]Record, 0, n)
	}
	for _, c := range collectors {
		g.records = append(g.records, c.records...)
	}
	return g
}

// FromRecords builds a Global directly from records (e.g. decoded from a
// trace file).
func FromRecords(records []Record) *Global {
	return &Global{records: records}
}

// Append merges more records into the collection, e.g. when the I/O
// system services several applications concurrently and all of them are
// recorded (paper §III.B step 1).
func (g *Global) Append(records ...Record) {
	g.records = append(g.records, records...)
}

// Records returns the gathered records (not a copy).
func (g *Global) Records() []Record { return g.records }

// Len returns the number of gathered records.
func (g *Global) Len() int { return len(g.records) }

// TotalBlocks returns B: the sum of required blocks over every access.
func (g *Global) TotalBlocks() int64 {
	var b int64
	for _, r := range g.records {
		b += r.Blocks
	}
	return b
}

// TotalBytes returns B in bytes.
func (g *Global) TotalBytes() int64 { return g.TotalBlocks() * BlockSize }

// SortByStart orders the collection by access start time (the sort step
// of the paper's Fig. 3 algorithm), breaking ties by end time then PID so
// the order is total and deterministic.
func (g *Global) SortByStart() {
	sort.Slice(g.records, func(i, j int) bool {
		a, b := g.records[i], g.records[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.PID < b.PID
	})
}

// PIDs returns the distinct process IDs present, sorted.
func (g *Global) PIDs() []int64 {
	seen := make(map[int64]bool)
	for _, r := range g.records {
		seen[r.PID] = true
	}
	out := make([]int64, 0, len(seen))
	for pid := range seen {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
