package bps_test

import (
	"bytes"
	"reflect"
	"testing"

	"bps"
)

// attribCases are the pinned-seed scenarios the attribution invariant
// is checked on: every simulated stack shape, including degraded and
// cached ones.
var attribCases = []struct {
	name string
	cfg  bps.RunConfig
}{
	{"local-hdd", bps.RunConfig{
		Storage: bps.Storage{Media: bps.HDD}, Seed: 7}},
	{"local-ssd-faulty", bps.RunConfig{
		Storage: bps.Storage{Media: bps.SSD, FaultEvery: 97}, Seed: 11}},
	{"cluster-shared", bps.RunConfig{
		Storage: bps.Storage{Media: bps.HDD, Servers: 2, SharedFile: true}, Seed: 7}},
	{"cluster-pinned", bps.RunConfig{
		Storage: bps.Storage{Media: bps.SSD, Servers: 2}, Seed: 13}},
	{"cluster-cache", bps.RunConfig{
		Storage: bps.Storage{Media: bps.HDD, Servers: 2, SharedFile: true,
			ClientCacheBytes: 1 << 20, ClientCacheReadAhead: 256 << 10}, Seed: 7}},
	{"cluster-faults", bps.RunConfig{
		Storage: bps.Storage{Media: bps.HDD, Servers: 2, SharedFile: true,
			FaultRate: 0.02}, Seed: 7}},
}

// TestAttributionPartitionsOverlapTime is the tentpole invariant: on
// every pinned-seed run, the per-layer exclusive times must sum exactly
// (integer nanoseconds, no rounding tolerance) to the overlapped I/O
// time T that the BPS metric divides by.
func TestAttributionPartitionsOverlapTime(t *testing.T) {
	for _, tc := range attribCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Observe = &bps.ObserveOptions{
				Attribution: true,
				WindowEvery: 10 * bps.Millisecond,
			}
			rep, err := bps.SimulateSequentialRead(cfg, 2, 256<<10, 64<<10)
			if err != nil {
				t.Fatal(err)
			}
			a := rep.Attribution
			if a == nil {
				t.Fatal("no attribution report")
			}
			if a.Total != rep.Metrics.IOTime {
				t.Fatalf("attribution Total = %v, want overlapped T %v", a.Total, rep.Metrics.IOTime)
			}
			if got := a.ExclusiveSum(); got != a.Total {
				t.Fatalf("exclusive sum = %v, want exactly T = %v (diff %v)",
					got, a.Total, got-a.Total)
			}
			if a.Dominant() == "" {
				t.Fatal("no dominant layer on a non-empty run")
			}
			// The folded stacks are an alternative partition of T.
			var stackSum bps.Time
			for _, st := range a.Stacks {
				stackSum += st.Time
			}
			if stackSum != a.Total {
				t.Fatalf("stack sum = %v, want T = %v", stackSum, a.Total)
			}
			// The streaming windows account for every access and block.
			var ops, blocks int64
			for _, w := range a.Windows {
				ops += w.Ops
				blocks += w.Blocks
			}
			if ops != rep.Metrics.Ops || blocks != rep.Metrics.Blocks {
				t.Fatalf("windows saw %d ops / %d blocks, run had %d / %d",
					ops, blocks, rep.Metrics.Ops, rep.Metrics.Blocks)
			}
			// Per-window busy never exceeds the window and sums to T.
			var busy bps.Time
			for _, w := range a.Windows {
				if w.Busy < 0 || w.Busy > w.End-w.Start {
					t.Fatalf("window at %v busy %v out of range", w.Start, w.Busy)
				}
				busy += w.Busy
			}
			if busy != rep.Metrics.IOTime {
				t.Fatalf("window busy sum = %v, want T = %v", busy, rep.Metrics.IOTime)
			}
		})
	}
}

// TestAttributionIsTimingNeutral requires that turning the profiler on
// changes nothing about the simulation: records and metrics are
// byte-identical with attribution off and on.
func TestAttributionIsTimingNeutral(t *testing.T) {
	for _, tc := range attribCases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(observe *bps.ObserveOptions) bps.RunReport {
				cfg := tc.cfg
				cfg.Observe = observe
				rep, err := bps.SimulateSequentialRead(cfg, 2, 256<<10, 64<<10)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			plain := run(nil)
			attributed := run(&bps.ObserveOptions{
				Attribution: true,
				WindowEvery: 5 * bps.Millisecond,
			})
			if !reflect.DeepEqual(plain.Records, attributed.Records) {
				t.Fatal("attribution changed the records")
			}
			if plain.Metrics != attributed.Metrics {
				t.Fatalf("attribution changed the metrics:\n off %+v\n  on %+v",
					plain.Metrics, attributed.Metrics)
			}
			var a, b bytes.Buffer
			if err := bps.WriteTraceCSV(&a, plain.Records); err != nil {
				t.Fatal(err)
			}
			if err := bps.WriteTraceCSV(&b, attributed.Records); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("attribution changed the trace CSV bytes")
			}
		})
	}
}

// TestAttributionConcurrentApps checks the partition invariant on the
// multi-application path, where the app union is built from several
// overlapping applications' records.
func TestAttributionConcurrentApps(t *testing.T) {
	cfg := bps.RunConfig{
		Storage: bps.Storage{Media: bps.HDD, Servers: 2},
		Seed:    7,
		Observe: &bps.ObserveOptions{Attribution: true},
	}
	combined, _, _, err := bps.SimulateTenants(cfg, bps.QoSConfig{},
		bps.TenantSpec{Tenant: bps.QoSTenant{Name: "a"}, Processes: 1, BytesPerProcess: 128 << 10, RecordSize: 64 << 10},
		bps.TenantSpec{Tenant: bps.QoSTenant{Name: "b"}, Processes: 1, BytesPerProcess: 128 << 10, RecordSize: 32 << 10,
			ComputePerOp: bps.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := combined.Attribution
	if a == nil {
		t.Fatal("no attribution report")
	}
	if a.Total != combined.Metrics.IOTime {
		t.Fatalf("Total = %v, want T = %v", a.Total, combined.Metrics.IOTime)
	}
	if got := a.ExclusiveSum(); got != a.Total {
		t.Fatalf("exclusive sum = %v, want exactly T = %v", got, a.Total)
	}
}

// TestAttributionFoldedExport: WriteFolded output is deterministic for
// a pinned seed and parses back to the report's stacks.
func TestAttributionFoldedExport(t *testing.T) {
	cfg := attribCases[2].cfg // cluster-shared
	cfg.Observe = &bps.ObserveOptions{Attribution: true}
	run := func() []byte {
		rep, err := bps.SimulateSequentialRead(cfg, 2, 256<<10, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Attribution.WriteFolded(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("folded output not deterministic:\n%s\nvs\n%s", first, second)
	}
	if len(first) == 0 {
		t.Fatal("empty folded output on an instrumented cluster run")
	}
}
