package bps

import (
	"fmt"
	"os"

	"bps/internal/obs/ingest"
	"bps/internal/workload"
)

// IOLog is a parsed Darshan-style I/O log: timestamped per-rank
// read/write segments plus optional per-rank module counters that
// cross-check them. Build one with ReadLogs and replay it with
// ReplayLog; Log.Records turns it into the paper's 32-byte records for
// post-hoc metrics without any simulation.
type IOLog = ingest.Log

// LogSegment is one timestamped access of an IOLog.
type LogSegment = ingest.Segment

// LogCounter is one per-rank per-file counter record of an IOLog.
type LogCounter = ingest.Counter

// Access is one offset-aware replayable access reconstructed from an
// ingested log (see IOLog.Accesses and ReplayAccesses).
type Access = workload.Access

// ReadLogs parses and merges the Darshan-style log files of one job
// (per-rank logs, or counters and segments split across files), then
// validates the merged whole. Each file's format is sniffed from its
// name: .csv reads the segment table (rank,file,op,offset,length,
// start_s,end_s with a header row), anything else the JSONL form (one
// object per line, "type": "segment" or "counter"). Validation checks
// segment sanity plus, when the recognized POSIX_* counters are
// present, an exact cross-check of operation counts and byte totals
// against the segments.
func ReadLogs(paths ...string) (*IOLog, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("bps: no log files given")
	}
	merged := &IOLog{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		l, err := ingest.ReadAuto(path, f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("bps: %s: %w", path, err)
		}
		merged.Append(l)
	}
	if err := merged.Validate(); err != nil {
		return nil, err
	}
	return merged, nil
}

// ReplayLog re-issues an ingested log against a simulated stack: the
// log's access stream (one file slot per distinct rank/file pair, one
// replay process per rank, original offsets and think time preserved)
// runs through the same middleware path every synthetic workload uses.
// Ingestion and replay are deterministic: the same log and config
// produce a bit-identical RunReport every time.
func ReplayLog(cfg RunConfig, l *IOLog) (RunReport, error) {
	if err := l.Validate(); err != nil {
		return RunReport{}, err
	}
	accs, _ := l.Accesses()
	return ReplayAccesses(cfg, accs)
}
