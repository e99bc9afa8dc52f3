package bps

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestFacadeMetricToolkit(t *testing.T) {
	c := NewCollector(1)
	c.Record(BlocksOf(64<<10), 0, Second)
	c.Record(BlocksOf(64<<10), Second, 2*Second)
	g := Gather(c)
	m := ComputeMetrics(g.Records(), 128<<10, 2*Second)
	if m.Ops != 2 || m.IOTime != 2*Second {
		t.Fatalf("metrics = %+v", m)
	}
	if got := m.BPS(); math.Abs(got-128) > 1e-9 {
		t.Fatalf("BPS = %v, want 128 blocks/s", got)
	}
	if OverlapTime(g.Records()) != 2*Second || SumTime(g.Records()) != 2*Second {
		t.Fatal("overlap/sum mismatch")
	}
}

func TestFacadeTraceRoundTrips(t *testing.T) {
	records := []Record{
		{PID: 1, Blocks: 128, Start: 0, End: Millisecond},
		{PID: 2, Blocks: 64, Start: Millisecond, End: 3 * Millisecond},
	}
	var bin, csv, jsonl bytes.Buffer
	if err := WriteTrace(&bin, records); err != nil {
		t.Fatal(err)
	}
	if bin.Len() != 2*RecordSize {
		t.Fatalf("binary size = %d", bin.Len())
	}
	if err := WriteTraceCSV(&csv, records); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceJSONL(&jsonl, records); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() ([]Record, error){
		"binary": func() ([]Record, error) { return ReadTrace(&bin) },
		"csv":    func() ([]Record, error) { return ReadTraceCSV(&csv) },
		"jsonl":  func() ([]Record, error) { return ReadTraceJSONL(&jsonl) },
	} {
		got, err := read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 2 || got[0] != records[0] || got[1] != records[1] {
			t.Fatalf("%s round trip: %+v", name, got)
		}
	}
}

func TestFacadeStats(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{2, 4, 6}
	if cc := Pearson(x, y); math.Abs(cc-1) > 1e-12 {
		t.Fatalf("Pearson = %v", cc)
	}
	// BPS rising while exec time rises is the wrong direction → negative.
	if got := NormalizedCC(1, BPS); got != -1 {
		t.Fatalf("NormalizedCC(+1, BPS) = %v, want -1", got)
	}
	if got := NormalizedCC(1, ARPT); got != 1 {
		t.Fatalf("NormalizedCC(+1, ARPT) = %v, want +1", got)
	}
}

func TestSimulateSequentialReadLocal(t *testing.T) {
	rep, err := SimulateSequentialRead(RunConfig{Storage: Storage{Media: SSD}, Seed: 1},
		1, 4<<20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || len(rep.Records) != 64 {
		t.Fatalf("report: errors=%d records=%d", rep.Errors, len(rep.Records))
	}
	if rep.Metrics.BPS() <= 0 || rep.Metrics.IOTime <= 0 {
		t.Fatalf("metrics: %+v", rep.Metrics)
	}
	// Moved equals required on a plain local read.
	if rep.Metrics.MovedBytes != 4<<20 {
		t.Fatalf("moved = %d", rep.Metrics.MovedBytes)
	}
}

func TestSimulateSequentialReadClusterModes(t *testing.T) {
	shared, err := SimulateSequentialRead(RunConfig{
		Storage: Storage{Media: HDD, Servers: 4, SharedFile: true}, Seed: 2,
	}, 4, 2<<20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := SimulateSequentialRead(RunConfig{
		Storage: Storage{Media: HDD, Servers: 4}, Seed: 2,
	}, 4, 2<<20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]RunReport{"shared": shared, "pinned": pinned} {
		if rep.Errors != 0 {
			t.Errorf("%s: %d errors", name, rep.Errors)
		}
		// Server readahead may overshoot concurrent segment boundaries a
		// little, so moved is bounded, not exact.
		if rep.Metrics.MovedBytes < 8<<20 || rep.Metrics.MovedBytes > 10<<20 {
			t.Errorf("%s: moved %d, want within [8 MiB, 10 MiB]", name, rep.Metrics.MovedBytes)
		}
	}
}

func TestSimulateNoncontiguousReadSievingDivergesBWFromBPS(t *testing.T) {
	// Spacing must exceed the servers' 4 KiB cache-page granularity for
	// direct mode to move less than the sieving covering extent.
	cfg := RunConfig{Storage: Storage{Media: HDD, Servers: 2}, Seed: 3}
	sieve, err := SimulateNoncontiguousRead(cfg, 1, 2048, 256, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := SimulateNoncontiguousRead(cfg, 1, 2048, 256, 16<<10, false)
	if err != nil {
		t.Fatal(err)
	}
	if sieve.Metrics.MovedBytes <= direct.Metrics.MovedBytes {
		t.Fatalf("sieving moved %d, direct %d", sieve.Metrics.MovedBytes, direct.Metrics.MovedBytes)
	}
	if sieve.Metrics.Blocks != direct.Metrics.Blocks {
		t.Fatalf("required blocks differ: %d vs %d", sieve.Metrics.Blocks, direct.Metrics.Blocks)
	}
	// With sieving, FS-level bandwidth exceeds the application-level block
	// rate expressed in bytes — the paper's BW/BPS divergence.
	if sieve.Metrics.Bandwidth() <= sieve.Metrics.BPS()*BlockSize {
		t.Fatal("sieving did not lift BW above BPS×BlockSize")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := SimulateSequentialRead(RunConfig{}, 0, 1<<20, 64<<10); err == nil {
		t.Error("procs=0 accepted")
	}
	if _, err := SimulateSequentialRead(RunConfig{}, 1, 0, 64<<10); err == nil {
		t.Error("zero bytes accepted")
	}
}

func TestSimulateDeterminism(t *testing.T) {
	cfg := RunConfig{Storage: Storage{Media: HDD, Servers: 2, SharedFile: true}, Seed: 9}
	a, err := SimulateSequentialRead(cfg, 2, 1<<20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateSequentialRead(cfg, 2, 1<<20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics {
		t.Fatalf("nondeterministic simulate: %+v vs %+v", a.Metrics, b.Metrics)
	}
}

func TestSuiteFacade(t *testing.T) {
	s := NewSuite(ExperimentParams{Scale: 1.0 / 1024, Seed: 42})
	f, err := s.Figure("fig5")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteFigure(&buf, f)
	if !strings.Contains(buf.String(), "normalized CC") {
		t.Fatalf("figure output:\n%s", buf.String())
	}
	buf.Reset()
	WriteTable1(&buf)
	WriteTable2(&buf)
	WriteSummary(&buf, []Figure{f})
	if !strings.Contains(buf.String(), "Table 1") || !strings.Contains(buf.String(), "Summary") {
		t.Fatalf("tables output:\n%s", buf.String())
	}
}

func TestTimelineFacade(t *testing.T) {
	records := []Record{
		{PID: 1, Blocks: 100, Start: 0, End: 500 * Millisecond},
		{PID: 2, Blocks: 100, Start: 1500 * Millisecond, End: 1700 * Millisecond},
	}
	pts, err := Timeline(records, Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("windows = %d", len(pts))
	}
	if pts[0].Busy != 500*Millisecond || pts[1].Busy != 200*Millisecond {
		t.Fatalf("busy: %v %v", pts[0].Busy, pts[1].Busy)
	}
	if _, err := Timeline(records, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestSimulateConcurrentApps(t *testing.T) {
	combined, perApp, err := SimulateConcurrentApps(
		RunConfig{Storage: Storage{Media: SSD, Servers: 2}, Seed: 4},
		AppSpec{Name: "a", Processes: 2, BytesPerProcess: 2 << 20, RecordSize: 64 << 10},
		AppSpec{Name: "b", Processes: 1, BytesPerProcess: 1 << 20, RecordSize: 64 << 10, ComputePerOp: Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(perApp) != 2 {
		t.Fatalf("perApp = %d", len(perApp))
	}
	// Globally unique PIDs: app a uses 0,1; app b uses 2.
	pids := uniquePIDSet(combined.Records)
	if len(pids) != 3 || !pids[0] || !pids[1] || !pids[2] {
		t.Fatalf("PIDs = %v", pids)
	}
	// Combined ops equal the sum of per-app ops.
	if combined.Metrics.Ops != perApp[0].Metrics.Ops+perApp[1].Metrics.Ops {
		t.Fatal("combined ops != sum of per-app ops")
	}
	// Combined T can never exceed the engine-wide exec time, and must be
	// at least each app's own I/O time.
	for i, rep := range perApp {
		if rep.Metrics.IOTime > combined.Metrics.ExecTime {
			t.Errorf("app %d IOTime %v > combined exec %v", i, rep.Metrics.IOTime, combined.Metrics.ExecTime)
		}
	}
	if combined.Errors != 0 {
		t.Fatalf("errors = %d", combined.Errors)
	}

	if _, _, err := SimulateConcurrentApps(RunConfig{}); err == nil {
		t.Error("no apps accepted")
	}
	if _, _, err := SimulateConcurrentApps(RunConfig{}, AppSpec{Name: "bad"}); err == nil {
		t.Error("invalid app accepted")
	}
}

func uniquePIDSet(records []Record) map[int64]bool {
	set := make(map[int64]bool)
	for _, r := range records {
		set[r.PID] = true
	}
	return set
}

func TestSimulateWithFaultInjection(t *testing.T) {
	rep, err := SimulateSequentialRead(RunConfig{
		Storage: Storage{Media: SSD, FaultEvery: 4},
		Seed:    1,
	}, 1, 1<<20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	// 16 accesses, every 4th fails: 4 errors.
	if rep.Errors != 4 {
		t.Fatalf("errors = %d, want 4", rep.Errors)
	}
	// Failed accesses still counted in B (§III.A).
	if rep.Metrics.Blocks != BlocksOf(1<<20) {
		t.Fatalf("B = %d blocks, failed accesses dropped", rep.Metrics.Blocks)
	}
	// And they consumed device time.
	clean, err := SimulateSequentialRead(RunConfig{
		Storage: Storage{Media: SSD},
		Seed:    1,
	}, 1, 1<<20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.IOTime != clean.Metrics.IOTime {
		t.Fatalf("fault run IOTime %v vs clean %v: faults should cost full service",
			rep.Metrics.IOTime, clean.Metrics.IOTime)
	}
}

func TestReplayTraceOnDifferentStacks(t *testing.T) {
	// Record a trace on HDD, then replay it on SSD: the same access
	// pattern must get faster.
	orig, err := SimulateSequentialRead(RunConfig{Storage: Storage{Media: HDD}, Seed: 1},
		2, 4<<20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayTrace(RunConfig{Storage: Storage{Media: SSD}, Seed: 1}, orig.Records)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Errors != 0 {
		t.Fatalf("errors = %d", replayed.Errors)
	}
	if replayed.Metrics.Blocks != orig.Metrics.Blocks {
		t.Fatalf("replay changed B: %d vs %d", replayed.Metrics.Blocks, orig.Metrics.Blocks)
	}
	if replayed.Metrics.IOTime >= orig.Metrics.IOTime {
		t.Fatalf("SSD replay (%v) not faster than HDD original (%v)",
			replayed.Metrics.IOTime, orig.Metrics.IOTime)
	}
	if _, err := ReplayTrace(RunConfig{}, nil); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestReplayTraceOnCluster(t *testing.T) {
	orig, err := SimulateSequentialRead(RunConfig{Storage: Storage{Media: SSD}, Seed: 2},
		2, 2<<20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayTrace(RunConfig{Storage: Storage{Media: HDD, Servers: 4}, Seed: 2}, orig.Records)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Errors != 0 || replayed.Metrics.Ops != orig.Metrics.Ops {
		t.Fatalf("replay: errors=%d ops=%d vs %d", replayed.Errors, replayed.Metrics.Ops, orig.Metrics.Ops)
	}
}

func TestParseStorage(t *testing.T) {
	cases := []struct {
		in      string
		media   Media
		servers int
		ok      bool
	}{
		{"hdd", HDD, 0, true},
		{"ssd", SSD, 0, true},
		{"hddx4", HDD, 4, true},
		{"ssdx8", SSD, 8, true},
		{"nvme", 0, 0, false},
		{"hddx0", 0, 0, false},
		{"hddy4", 0, 0, false},
	}
	for _, c := range cases {
		s, err := ParseStorage(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseStorage(%q) err = %v", c.in, err)
			continue
		}
		if c.ok && (s.Media != c.media || s.Servers != c.servers) {
			t.Errorf("ParseStorage(%q) = %+v", c.in, s)
		}
	}
}
