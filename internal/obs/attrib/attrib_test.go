package attrib

import (
	"testing"

	"bps/internal/sim"
)

// layer index shorthands for test readability.
var (
	liRPC    = LayerIndex(LayerRPC)
	liServer = LayerIndex(LayerServer)
	liNet    = LayerIndex(LayerNet)
	liDevice = LayerIndex(LayerDevice)
)

func layerByName(t *testing.T, rep *Report, name string) LayerTime {
	t.Helper()
	for _, l := range rep.Layers {
		if l.Layer == name {
			return l
		}
	}
	t.Fatalf("layer %q not in report", name)
	return LayerTime{}
}

// TestSweepPartition checks the core invariant on a hand-built nesting:
// every instant of the app union is charged to exactly one layer (the
// innermost active one), so the exclusive times partition T.
func TestSweepPartition(t *testing.T) {
	c := NewCollector(Config{Spans: true})
	c.AddApp(0, 100)
	c.AddSpan(liServer, 0, 50)
	c.AddSpan(liNet, 5, 40)
	c.AddSpan(liDevice, 10, 30)
	rep := c.Report()

	if rep.Total != 100 {
		t.Fatalf("Total = %d, want 100", rep.Total)
	}
	if got := rep.ExclusiveSum(); got != rep.Total {
		t.Fatalf("ExclusiveSum = %d, want Total %d", got, rep.Total)
	}
	want := map[string]sim.Time{
		LayerServer: 15, // [0,5) + [40,50)
		LayerNet:    15, // [5,10) + [30,40)
		LayerDevice: 20, // [10,30)
		LayerClient: 50, // [50,100)
	}
	for name, excl := range want {
		if l := layerByName(t, rep, name); l.Exclusive != excl {
			t.Errorf("%s exclusive = %d, want %d", name, l.Exclusive, excl)
		}
	}
	// Busy is each layer's own union, independent of nesting.
	if l := layerByName(t, rep, LayerNet); l.Busy != 35 || l.Spans != 1 {
		t.Errorf("net busy/spans = %d/%d, want 35/1", l.Busy, l.Spans)
	}
	if l := layerByName(t, rep, LayerServer); l.Busy != 50 {
		t.Errorf("server busy = %d, want 50", l.Busy)
	}
	if rep.Dominant() != LayerClient {
		t.Errorf("Dominant = %q, want %q", rep.Dominant(), LayerClient)
	}
	// Stack times partition T too.
	var stackSum sim.Time
	for _, st := range rep.Stacks {
		stackSum += st.Time
	}
	if stackSum != rep.Total {
		t.Errorf("stack sum = %d, want Total %d", stackSum, rep.Total)
	}
}

// TestSweepConcurrencyCountedOnce overlays two processes' concurrent
// device spans: the overlap must be counted once, exactly as the
// paper's Fig. 3 counts concurrent accesses once.
func TestSweepConcurrencyCountedOnce(t *testing.T) {
	c := NewCollector(Config{Spans: true})
	c.AddApp(0, 10)
	c.AddApp(5, 25) // overlapping second process: union is [0,25)
	c.AddSpan(liDevice, 0, 8)
	c.AddSpan(liDevice, 4, 12) // overlaps the first span
	rep := c.Report()

	if rep.Total != 25 {
		t.Fatalf("Total = %d, want 25 (union of overlapping apps)", rep.Total)
	}
	dev := layerByName(t, rep, LayerDevice)
	if dev.Exclusive != 12 {
		t.Errorf("device exclusive = %d, want 12 (union of overlapping spans)", dev.Exclusive)
	}
	if dev.Busy != 12 || dev.Spans != 2 {
		t.Errorf("device busy/spans = %d/%d, want 12/2", dev.Busy, dev.Spans)
	}
	if got := rep.ExclusiveSum(); got != rep.Total {
		t.Fatalf("ExclusiveSum = %d, want Total %d", got, rep.Total)
	}
}

// TestSweepOffPath: layer activity outside every app interval is
// reported as off-path, never charged to T.
func TestSweepOffPath(t *testing.T) {
	c := NewCollector(Config{Spans: true})
	c.AddApp(0, 10)
	c.AddSpan(liServer, 5, 20) // [10,20) is after the app finished
	rep := c.Report()

	if rep.Total != 10 {
		t.Fatalf("Total = %d, want 10", rep.Total)
	}
	srv := layerByName(t, rep, LayerServer)
	if srv.Exclusive != 5 || srv.OffPath != 10 {
		t.Errorf("server exclusive/offpath = %d/%d, want 5/10", srv.Exclusive, srv.OffPath)
	}
	if got := rep.ExclusiveSum(); got != rep.Total {
		t.Fatalf("ExclusiveSum = %d, want Total %d", got, rep.Total)
	}
}

// TestDominantTieBreaksDeeper: equal exclusive shares resolve to the
// deeper (closer-to-hardware) layer.
func TestDominantTieBreaksDeeper(t *testing.T) {
	c := NewCollector(Config{Spans: true})
	c.AddApp(0, 20)
	c.AddSpan(liNet, 0, 10)
	c.AddSpan(liDevice, 10, 20)
	rep := c.Report()
	if rep.Dominant() != LayerDevice {
		t.Errorf("Dominant = %q, want device (deeper wins ties)", rep.Dominant())
	}

	var empty *Report
	if empty.Dominant() != "" {
		t.Errorf("nil report Dominant = %q, want \"\"", empty.Dominant())
	}
	if (&Report{}).Dominant() != "" {
		t.Errorf("zero report Dominant = %q, want \"\"", (&Report{}).Dominant())
	}
	// A live run's report carries T and windows but no layer spans.
	if d := (&Report{Total: 20}).Dominant(); d != "" {
		t.Errorf("span-less report Dominant = %q, want \"\"", d)
	}
}

// TestLayerOf checks the span-identifier classification used by the
// observer's Begin.
func TestLayerOf(t *testing.T) {
	cases := []struct {
		cat, name string
		want      int
	}{
		{"device", "hdd read", liDevice},
		{"device", "ssd write", liDevice},
		{"net", "cn0->switch", liNet},
		{"net", "transfer", liNet},
		{"cache", "hit", LayerIndex(LayerCache)},
		{"pfs", "read", liRPC},
		{"pfs", "write", liRPC},
		{"pfs", "retry", LayerIndex(LayerRetry)},
		{"pfs", "ios0 serve", liServer},
		{"pfs", "ios12 serve", liServer},
		{"app", "access", -1},
		{"counter", "x", -1},
	}
	for _, tc := range cases {
		if got := LayerOf(tc.cat, tc.name); got != tc.want {
			t.Errorf("LayerOf(%q, %q) = %d, want %d", tc.cat, tc.name, got, tc.want)
		}
	}
}

// TestCollectorDisabledAndNil: span collection off (windows-only) and
// nil collectors absorb everything.
func TestCollectorDisabledAndNil(t *testing.T) {
	c := NewCollector(Config{})
	c.AddApp(0, 10)
	c.AddSpan(liDevice, 0, 5)
	c.AddAccess(8, 0, 10)
	rep := c.Report()
	if rep.Total != 0 || rep.Layers != nil || rep.Windows != nil {
		t.Fatalf("disabled collector produced data: %+v", rep)
	}

	var nc *Collector
	nc.AddApp(0, 1)
	nc.AddSpan(0, 0, 1)
	nc.AddAccess(1, 0, 1)
	if nc.Report() != nil {
		t.Fatal("nil collector returned a report")
	}
}

// TestReportCached: Report computes once and returns the same pointer.
func TestReportCached(t *testing.T) {
	c := NewCollector(Config{Spans: true})
	c.AddApp(0, 10)
	if c.Report() != c.Report() {
		t.Fatal("Report not cached")
	}
}
