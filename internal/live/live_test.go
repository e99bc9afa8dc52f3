package live

import (
	"os"
	"reflect"
	"testing"
	"time"

	"bps/internal/backend"
	"bps/internal/clock"
	"bps/internal/core"
	"bps/internal/obs/forecast"
	"bps/internal/obs/serve"
	"bps/internal/sim"
	"bps/internal/workload"
)

// testAccesses is a small two-process mixed read/write workload with
// recorded think time.
func testAccesses() []workload.Access {
	var accs []workload.Access
	for pid := int64(0); pid < 2; pid++ {
		for i := int64(0); i < 16; i++ {
			accs = append(accs, workload.Access{
				PID:   pid,
				Slot:  int(pid),
				Off:   i * 8192,
				Size:  8192,
				Start: sim.Time(i) * 200 * sim.Microsecond,
				Write: i%4 == 0,
			})
		}
	}
	return accs
}

func virtualConfig(fsys backend.FS) Config {
	return Config{
		FS:          fsys,
		Mode:        Virtual,
		Cost:        clock.CostModel{PerOp: 50 * sim.Microsecond, BytesPerSec: 100e6},
		WindowEvery: sim.Millisecond,
		Seed:        42,
		Label:       "test",
	}
}

// TestVirtualDeterminism is the core reproducibility property: two
// virtual-mode runs of the same workload are identical in every
// reported surface — metrics, per-record timestamps, and windows.
func TestVirtualDeterminism(t *testing.T) {
	run := func() Report {
		rep, err := Run(virtualConfig(backend.NewMemFS()), testAccesses())
		if err != nil {
			t.Fatal(err)
		}
		rep.Registry = nil // pointer identity differs by construction
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("virtual runs diverge:\n%+v\nvs\n%+v", a, b)
	}
	if a.Metrics.Ops != 32 || a.Errors != 0 {
		t.Fatalf("ops=%d errors=%d, want 32, 0", a.Metrics.Ops, a.Errors)
	}
	if a.Metrics.BPS() <= 0 || a.Metrics.IOPS() <= 0 {
		t.Fatalf("degenerate metrics: %+v", a.Metrics)
	}
	if len(a.Attribution.Windows) == 0 {
		t.Fatalf("no windows collected")
	}
	if a.Backend != "mem" || a.Mode != Virtual {
		t.Fatalf("backend %q mode %v", a.Backend, a.Mode)
	}
}

// TestVirtualSeedSensitivity: the seed feeds worker RNGs, not the
// timeline — two different seeds produce identical timestamps, which
// is what makes the livemem figure a pure function of (workload, cost
// model).
func TestVirtualSeedSensitivity(t *testing.T) {
	run := func(seed int64) Report {
		cfg := virtualConfig(backend.NewMemFS())
		cfg.Seed = seed
		rep, err := Run(cfg, testAccesses())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(2)
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("seed leaked into the virtual timeline: %+v vs %+v", a.Metrics, b.Metrics)
	}
}

// TestWallSmoke runs the wall-clock mode end to end on memfs: real
// timestamps, nonzero BPS, records for every access.
func TestWallSmoke(t *testing.T) {
	cfg := Config{
		FS:    backend.NewMemFS(),
		Mode:  Wall,
		Seed:  1,
		Label: "wall-smoke",
	}
	rep, err := Run(cfg, testAccesses())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != Wall || rep.Errors != 0 {
		t.Fatalf("mode %v errors %d", rep.Mode, rep.Errors)
	}
	if rep.Metrics.Ops != 32 || len(rep.Records) != 32 {
		t.Fatalf("ops %d records %d, want 32", rep.Metrics.Ops, len(rep.Records))
	}
	if rep.Metrics.BPS() <= 0 {
		t.Fatalf("wall BPS = %v", rep.Metrics.BPS())
	}
	if rep.Metrics.ExecTime <= 0 {
		t.Fatalf("wall exec time = %v", rep.Metrics.ExecTime)
	}
	for i, r := range rep.Records {
		if r.End < r.Start {
			t.Fatalf("record %d runs backwards: %+v", i, r)
		}
	}
}

// TestWorkersShareSlot: four wall-clock workers replay into one slot
// file at once. Each worker issues through its own middleware.POSIX,
// which reuses one request value per call; run under -race, this is
// the check that no request state is shared between workers.
func TestWorkersShareSlot(t *testing.T) {
	var accs []workload.Access
	for pid := int64(0); pid < 4; pid++ {
		for i := int64(0); i < 16; i++ {
			accs = append(accs, workload.Access{PID: pid, Off: (pid*16 + i) * 4096, Size: 4096, Write: i%2 == 0})
		}
	}
	rep, err := Run(Config{FS: backend.NewMemFS(), Mode: Wall, Seed: 1, Label: "shared-slot"}, accs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Metrics.Ops != 64 {
		t.Fatalf("errors %d ops %d, want 0 and 64", rep.Errors, rep.Metrics.Ops)
	}
	reg := rep.Registry
	if got := reg.Counter("ioreq/live/requests").Value(); got != 64 {
		t.Fatalf("stack served %d requests, want 64", got)
	}
	if got := reg.Counter("ioreq/live/bytes").Value(); got != 64*4096 {
		t.Fatalf("stack served %d bytes, want %d", got, 64*4096)
	}
}

// TestRunOnOSFS exercises the real-filesystem backend through a temp
// directory, including the pre-layout path.
func TestRunOnOSFS(t *testing.T) {
	dir := t.TempDir()
	accs := testAccesses()
	osb := backend.NewOSFS(dir, false)
	if _, err := Layout(osb, accs); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(virtualConfig(backend.NewOSFS(dir, false)), accs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "os" || rep.Errors != 0 {
		t.Fatalf("backend %q errors %d", rep.Backend, rep.Errors)
	}
	if rep.Metrics.MovedBytes <= 0 {
		t.Fatalf("no bytes moved through the os backend")
	}
}

func TestLayout(t *testing.T) {
	m := backend.NewMemFS()
	accs := []workload.Access{
		{PID: 0, Slot: 0, Off: 0, Size: 4096},
		{PID: 0, Slot: 0, Off: 4096, Size: 4096},
		{PID: 1, Slot: 1, Off: 10000, Size: 96},
	}
	extents, err := Layout(m, accs)
	if err != nil {
		t.Fatal(err)
	}
	if len(extents) != 2 || extents[0] != 8192 || extents[1] != 10096 {
		t.Fatalf("extents = %v, want [8192 10096]", extents)
	}
	for slot, want := range extents {
		if got := slotSize(t, m, slot); got != want {
			t.Fatalf("slot %d size %d, want %d", slot, got, want)
		}
	}
	// Re-layout is idempotent and never shrinks.
	f, err := m.OpenFile(SlotName(0), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(1 << 20); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Layout(m, accs); err != nil {
		t.Fatal(err)
	}
	if got := slotSize(t, m, 0); got != 1<<20 {
		t.Fatalf("layout shrank an existing file to %d", got)
	}
}

// slotSize reports the size of a slot file through an opened handle.
func slotSize(t *testing.T, fsys backend.FS, slot int) int64 {
	t.Helper()
	f, err := fsys.OpenFile(SlotName(slot), os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestMaxWindowEnd pins the "now" a virtual-mode periodic snapshot is
// stamped with: the end of the latest window the estimator holds, or 0
// before any access completes.
func TestMaxWindowEnd(t *testing.T) {
	d := &driver{est: core.NewWindowEstimator(10 * sim.Millisecond)}
	if got := d.maxWindowEnd(); got != 0 {
		t.Fatalf("no accesses: maxWindowEnd = %v, want 0", got)
	}
	d.add(8, 2*sim.Millisecond, 5*sim.Millisecond)
	d.add(8, 12*sim.Millisecond, 23*sim.Millisecond)
	if got, want := d.maxWindowEnd(), 30*sim.Millisecond; got != want {
		t.Fatalf("maxWindowEnd = %v, want %v (the end of the window holding 23 ms)", got, want)
	}
}

// TestPublishServeIntegration plugs a serve.Publisher into the driver's
// Publish hook — the interface-compatibility contract between
// live.Source and serve.Source — and checks the final snapshot made it
// to the HTTP layer's data model.
func TestPublishServeIntegration(t *testing.T) {
	pub := serve.NewPublisher("live-test", forecast.Config{})
	cfg := virtualConfig(backend.NewMemFS())
	cfg.Publish = func(now sim.Time, src Source) { pub.Publish(now, src) }
	cfg.PublishEvery = time.Hour // only the final snapshot fires deterministically
	rep, err := Run(cfg, testAccesses())
	if err != nil {
		t.Fatal(err)
	}
	snap := pub.Snapshot()
	if len(snap.Windows) == 0 {
		t.Fatalf("publisher saw no windows")
	}
	if len(snap.Windows) != len(rep.Attribution.Windows) {
		t.Fatalf("publisher saw %d windows, run reported %d", len(snap.Windows), len(rep.Attribution.Windows))
	}
}

func TestRunValidation(t *testing.T) {
	cfg := virtualConfig(backend.NewMemFS())
	if _, err := Run(cfg, nil); err == nil {
		t.Fatalf("empty access stream accepted")
	}
	if _, err := Run(cfg, []workload.Access{{PID: 0, Slot: 0, Size: 0}}); err == nil {
		t.Fatalf("zero-size access accepted")
	}
	if _, err := Run(cfg, []workload.Access{{PID: 0, Slot: -1, Size: 1}}); err == nil {
		t.Fatalf("negative slot accepted")
	}
	if _, err := Run(Config{}, testAccesses()); err == nil {
		t.Fatalf("nil FS accepted")
	}
}

// TestSlotName pins the shared naming contract with iogen -layout.
func TestSlotName(t *testing.T) {
	if got := SlotName(7); got != "slot0007.dat" {
		t.Fatalf("SlotName(7) = %q", got)
	}
	if _, err := os.Stat(SlotName(0)); err == nil {
		t.Fatalf("SlotName resolved to an existing host file; must be backend-relative")
	}
}
