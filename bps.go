// Package bps is a Go implementation of the BPS (Blocks Per Second) I/O
// performance metric from He, Sun, and Yin, "BPS: A Performance Metric of
// I/O System" (IEEE IPDPSW 2013), together with the full simulated
// parallel-I/O testbed used to reproduce the paper's evaluation.
//
// The package has three layers:
//
//   - The metric toolkit: trace records (one 32-byte record per
//     application I/O access), the overlapped-I/O-time computation
//     (paper Fig. 3), and the four metrics under comparison — IOPS,
//     bandwidth, average response time (ARPT), and BPS — plus the
//     correlation statistics of the paper's methodology.
//
//   - A high-level simulation API (Simulate*) that runs IOzone-, IOR-,
//     and HPIO-style workloads on simulated storage stacks (HDD/SSD,
//     direct-attached or PVFS-like parallel file system) and returns
//     measured metrics.
//
//   - The paper-reproduction suite (NewSuite) regenerating every
//     evaluation table and figure.
//
// The heavy lifting lives in internal packages (sim, device, netsim,
// fsim, pfs, middleware, trace, core, stats, workload, experiments);
// this package is the supported surface.
package bps

import (
	"io"

	"bps/internal/core"
	"bps/internal/sim"
	"bps/internal/trace"
)

// BlockSize is the I/O block unit BPS counts in: 512 bytes.
const BlockSize = trace.BlockSize

// RecordSize is the encoded size of one trace record: 32 bytes, matching
// the paper's overhead analysis (§III.C).
const RecordSize = trace.RecordSize

// Time is a simulated timestamp or duration in nanoseconds.
type Time = sim.Time

// Time unit constants.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Record is one application I/O access: process ID, required size in
// 512-byte blocks, start time, and end time.
type Record = trace.Record

// Collector accumulates the records of one process.
type Collector = trace.Collector

// NewCollector returns a collector for the given process ID.
func NewCollector(pid int64) *Collector { return trace.NewCollector(pid) }

// Gather merges per-process collectors into a global record collection.
func Gather(collectors ...*Collector) *trace.Global { return trace.Gather(collectors...) }

// BlocksOf converts a byte count to whole 512-byte blocks, rounding up.
func BlocksOf(bytes int64) int64 { return trace.BlocksOf(bytes) }

// Metrics holds one run's measurements; its methods derive the four
// metric values.
type Metrics = core.Metrics

// MetricKind identifies one of the four metrics under comparison.
type MetricKind = core.MetricKind

// The four metrics (paper §II and Table 1).
const (
	IOPS = core.IOPS
	BW   = core.BW
	ARPT = core.ARPT
	BPS  = core.BPS
)

// MetricKinds lists the metrics in the paper's presentation order.
var MetricKinds = core.Kinds

// OverlapTime computes T in the BPS equation: the union of all access
// intervals, counting concurrent time once and excluding idle gaps
// (paper Fig. 3 algorithm, O(n log n)).
func OverlapTime(records []Record) Time { return core.OverlapTime(records) }

// SumTime is the naive alternative: the arithmetic sum of access
// durations, counting concurrency multiply (ARPT's numerator).
func SumTime(records []Record) Time { return core.SumTime(records) }

// ComputeMetrics derives a run's metrics from its records, the bytes
// actually moved at the file-system level, and the application execution
// time.
func ComputeMetrics(records []Record, movedBytes int64, execTime Time) Metrics {
	return core.Compute(trace.FromRecords(records), movedBytes, execTime)
}

// TimelinePoint is the measurement of one fixed window of a run.
type TimelinePoint = core.Window

// Timeline slices a run into fixed windows and measures each: completed
// operations and blocks are attributed to the window containing the
// access's completion, busy time is the exact intersection of the
// overlap union with the window, and each window's BPS/IOPS follow. It
// turns the single-number BPS into a time series. A record with a
// negative start or an end before its start is an error.
func Timeline(records []Record, window Time) ([]TimelinePoint, error) {
	return core.Timeline(trace.FromRecords(records), window)
}

// Trace codecs: the binary format is the paper's 32-byte record (four
// little-endian int64s); CSV and JSONL forms exist for interoperability.

// WriteTrace encodes records in the 32-byte binary format.
func WriteTrace(w io.Writer, records []Record) error { return trace.WriteBinary(w, records) }

// ReadTrace decodes records from the 32-byte binary format.
func ReadTrace(r io.Reader) ([]Record, error) { return trace.ReadBinary(r) }

// WriteTraceCSV encodes records as CSV with a header row.
func WriteTraceCSV(w io.Writer, records []Record) error { return trace.WriteCSV(w, records) }

// ReadTraceCSV decodes records from CSV.
func ReadTraceCSV(r io.Reader) ([]Record, error) { return trace.ReadCSV(r) }

// WriteTraceJSONL encodes records as one JSON object per line.
func WriteTraceJSONL(w io.Writer, records []Record) error { return trace.WriteJSONL(w, records) }

// ReadTraceJSONL decodes records from JSONL.
func ReadTraceJSONL(r io.Reader) ([]Record, error) { return trace.ReadJSONL(r) }

// ParseBlkparse converts blktrace/blkparse text output into records:
// issue (D) / completion (C) pairs become accesses, with the sector
// count as the block count (blktrace sectors are 512 bytes, the paper's
// block unit). dropped counts issues that never completed.
func ParseBlkparse(r io.Reader) (records []Record, dropped int, err error) {
	return trace.ParseBlkparse(r)
}
