package bps_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bps"
	"bps/internal/obs/forecast"
	"bps/internal/obs/ingest"
	"bps/internal/obs/serve"
	"bps/internal/sim"
)

func replayCfg() bps.RunConfig {
	return bps.RunConfig{
		Storage: bps.Storage{Media: bps.HDD, Servers: 4, SharedFile: true},
		Seed:    1,
		Observe: &bps.ObserveOptions{
			SampleEvery: sim.Millisecond,
			WindowEvery: 10 * sim.Millisecond,
		},
	}
}

// TestReplayLogDeterminism is the ISSUE's acceptance criterion: an
// ingested sample log replayed twice produces bit-identical window
// series and forecasts.
func TestReplayLogDeterminism(t *testing.T) {
	l, err := bps.ReadLogs("testdata/darshan_sample.csv")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (bps.RunReport, []forecast.Point, []forecast.Alert) {
		rep, err := bps.ReplayLog(replayCfg(), l)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Attribution == nil {
			t.Fatal("no attribution report")
		}
		tr := forecast.NewTracker(forecast.Config{})
		for _, w := range rep.Attribution.Windows {
			tr.ObserveWindow(w)
		}
		return rep, tr.SeriesByName("bps").Points(), tr.Alerts()
	}
	rep1, pts1, al1 := run()
	rep2, pts2, al2 := run()

	if rep1.Metrics != rep2.Metrics {
		t.Errorf("metrics diverged across replays:\n%+v\n%+v", rep1.Metrics, rep2.Metrics)
	}
	if !reflect.DeepEqual(rep1.Attribution.Windows, rep2.Attribution.Windows) {
		t.Error("window series diverged across replays")
	}
	if !reflect.DeepEqual(pts1, pts2) {
		t.Error("forecasts diverged across replays")
	}
	if !reflect.DeepEqual(al1, al2) {
		t.Error("alerts diverged across replays")
	}
	if len(rep1.Attribution.Windows) == 0 {
		t.Fatal("replay produced no windows")
	}
	if len(pts1) == 0 {
		t.Fatal("replay produced no forecast points")
	}
}

// TestReplayLogMeasuresB checks the replay pushes exactly the log's
// bytes through the stack: B must equal total segment bytes / 512.
func TestReplayLogMeasuresB(t *testing.T) {
	l, err := bps.ReadLogs("testdata/darshan_sample.csv")
	if err != nil {
		t.Fatal(err)
	}
	var bytesTotal int64
	for _, s := range l.Segments {
		bytesTotal += s.Length
	}
	rep, err := bps.ReplayLog(replayCfg(), l)
	if err != nil {
		t.Fatal(err)
	}
	if want := bytesTotal / 512; rep.Metrics.Blocks != want {
		t.Fatalf("B = %d, want %d (log bytes %d / 512)", rep.Metrics.Blocks, want, bytesTotal)
	}
	if rep.Metrics.IOTime <= 0 || rep.Metrics.BPS() <= 0 {
		t.Fatalf("degenerate metrics: T=%v BPS=%v", rep.Metrics.IOTime, rep.Metrics.BPS())
	}
}

// TestLogRoundTripThroughPublicCodecs writes the parsed sample back
// out in both file forms and rereads each through ReadLogs, which picks
// the codec from the file name, requiring identical segment tables.
func TestLogRoundTripThroughPublicCodecs(t *testing.T) {
	l, err := bps.ReadLogs("testdata/darshan_sample.csv")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, write := range map[string]func(io.Writer, *bps.IOLog) error{
		"log.csv":   ingest.WriteCSV,
		"log.jsonl": ingest.WriteJSONL,
	} {
		var buf bytes.Buffer
		if err := write(&buf, l); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := bps.ReadLogs(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back.Segments, l.Segments) {
			t.Errorf("%s round trip changed the segment table", name)
		}
	}
}

// TestReadLogsMergesAndValidates splits the sample by rank into two
// JSONL files and merges them back through ReadLogs.
func TestReadLogsMergesAndValidates(t *testing.T) {
	l, err := bps.ReadLogs("testdata/darshan_sample.csv")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := make([]string, 0, 2)
	for _, rank := range l.Ranks() {
		part := &bps.IOLog{}
		for _, s := range l.Segments {
			if s.Rank == rank {
				part.Segments = append(part.Segments, s)
			}
		}
		part.SynthesizeCounters()
		var buf bytes.Buffer
		if err := ingest.WriteJSONL(&buf, part); err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("%s/rank%d.jsonl", dir, rank)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	merged, err := bps.ReadLogs(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != l.Len() {
		t.Fatalf("merged %d segments, want %d", merged.Len(), l.Len())
	}
	accA, extA := merged.Accesses()
	accB, extB := l.Accesses()
	if !reflect.DeepEqual(accA, accB) || !reflect.DeepEqual(extA, extB) {
		t.Error("merged per-rank logs reconstruct a different access stream")
	}
}

// TestReplayLogRejectsBadLog checks validation runs before replay.
func TestReplayLogRejectsBadLog(t *testing.T) {
	l := &bps.IOLog{Segments: []bps.LogSegment{{Rank: 0, File: "f", Length: -5, End: 1}}}
	if _, err := bps.ReplayLog(replayCfg(), l); err == nil {
		t.Fatal("invalid log replayed without error")
	}
	if _, err := bps.ReadLogs(); err == nil {
		t.Fatal("ReadLogs with no paths succeeded")
	}
	if _, err := bps.ReadLogs(t.TempDir() + "/missing.csv"); err == nil {
		t.Fatal("missing file read without error")
	}
}

// TestServeSnapshotJSONStable ties the public replay path to the serve
// layer: replaying under two hooked publishers yields byte-identical
// snapshot JSON, the wire-level form of the determinism criterion.
func TestServeSnapshotJSONStable(t *testing.T) {
	l, err := bps.ReadLogs("testdata/darshan_sample.csv")
	if err != nil {
		t.Fatal(err)
	}
	snap := func() string {
		pub := serve.NewPublisher("test", forecast.Config{})
		cfg := replayCfg()
		cfg.Observe.Tick = pub.Hook()
		if _, err := bps.ReplayLog(cfg, l); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(pub.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	s1, s2 := snap(), snap()
	if s1 != s2 {
		t.Fatal("snapshot JSON diverged across identical replays")
	}
	if !strings.Contains(s1, `"series"`) || !strings.Contains(s1, `"windows"`) {
		t.Fatalf("snapshot missing expected sections: %s", s1)
	}
}
