package qos

import (
	"errors"
	"reflect"
	"testing"

	"bps/internal/ioreq"
	"bps/internal/sim"
	"bps/internal/testbed"
)

// specA is the protected streaming tenant: large sequential records.
func specA(floor float64) TenantSpec {
	return TenantSpec{
		Tenant:          Tenant{Name: "tenantA", Priority: 1, BPSFloor: floor},
		Processes:       2,
		BytesPerProcess: 24 << 20,
		RecordSize:      1 << 20,
	}
}

// specB is the interfering tenant: many small random-ish records that
// seek the same disks A streams from.
func specB() TenantSpec {
	return TenantSpec{
		Tenant:          Tenant{Name: "tenantB", Priority: 0},
		Processes:       4,
		BytesPerProcess: 2 << 20,
		RecordSize:      4 << 10,
	}
}

// mustRun runs the tenants on four HDD servers with server caching
// off: interference must reach the disks, not be absorbed by server
// readahead.
func mustRun(t *testing.T, seed int64, q Config, tenants ...TenantSpec) Result {
	t.Helper()
	e := sim.NewEngine(seed)
	cluster, _ := testbed.NewCluster(e, testbed.ClusterSpec{Servers: 4, Media: testbed.HDD, ServerCache: -1})
	res, err := Run(e, RunSpec{Cluster: cluster, QoS: q, Tenants: tenants})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// wallRate is a tenant's delivered blocks per second of execution time —
// the control law's own variable.
func wallRate(r TenantResult) float64 {
	if r.Metrics.ExecTime <= 0 {
		return 0
	}
	return float64(r.Metrics.Blocks) / r.Metrics.ExecTime.Seconds()
}

// TestInterferenceAndThrottle is the acceptance pin of the control
// loop: tenant B degrades tenant A's BPS by at least 20%, and enabling
// the throttle with A's floor restores A to within 10% of its solo
// baseline.
func TestInterferenceAndThrottle(t *testing.T) {
	const seed = 42

	solo := mustRun(t, seed, Config{}, specA(0))
	soloBPS := solo.Tenants[0].Metrics.BPS()
	if soloBPS <= 0 {
		t.Fatalf("solo BPS = %v, want > 0", soloBPS)
	}

	both := mustRun(t, seed, Config{}, specA(0), specB())
	bothBPS := both.Tenants[0].Metrics.BPS()
	if bothBPS >= 0.8*soloBPS {
		t.Fatalf("tenant B degrades A's BPS only %.4g -> %.4g (want >= 20%% degradation)", soloBPS, bothBPS)
	}

	floor := 0.9 * wallRate(solo.Tenants[0])
	throttled := mustRun(t, seed, Config{Enabled: true}, specA(floor), specB())
	thrBPS := throttled.Tenants[0].Metrics.BPS()
	if thrBPS < 0.9*soloBPS {
		t.Fatalf("throttled A BPS %.4g not within 10%% of solo %.4g", thrBPS, soloBPS)
	}
	rep := throttled.Report
	if rep.Activations == 0 {
		t.Fatalf("throttle never activated")
	}
	var b *TenantReport
	for i := range rep.Tenants {
		if rep.Tenants[i].Name == "tenantB" {
			b = &rep.Tenants[i]
		}
	}
	if b == nil {
		t.Fatalf("report missing tenantB")
	}
	if b.Delayed == 0 && b.Shed == 0 {
		t.Fatalf("tenant B neither delayed nor shed: %+v", b)
	}
	t.Logf("solo BPS %.4g, degraded %.4g (%.0f%%), throttled %.4g (%.0f%% of solo); activations %d, B delayed %d shed %d",
		soloBPS, bothBPS, 100*bothBPS/soloBPS, thrBPS, 100*thrBPS/soloBPS, rep.Activations, b.Delayed, b.Shed)
}

// TestDeterminism pins the determinism contract: identical seeds give
// DeepEqual results, including the full QoS report.
func TestDeterminism(t *testing.T) {
	q := Config{Enabled: true}
	a, b := specA(1e6), specB()
	r1 := mustRun(t, 7, q, a, b)
	r2 := mustRun(t, 7, q, a, b)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same seed, different results")
	}
	r3 := mustRun(t, 8, q, a, b)
	if reflect.DeepEqual(r1.Combined, r3.Combined) {
		t.Fatalf("different seeds gave identical combined metrics (suspicious)")
	}
}

// TestDisabledQoSIsTimingNeutral pins that the admission layer without
// an active control loop never touches the simulated timeline: a run
// with QoS enabled but no protected floor is record-identical to a run
// with QoS disabled.
func TestDisabledQoSIsTimingNeutral(t *testing.T) {
	a, b := specA(0), specB()
	off := mustRun(t, 42, Config{}, a, b)
	on := mustRun(t, 42, Config{Enabled: true}, a, b)
	if !reflect.DeepEqual(off.Records, on.Records) {
		t.Fatalf("enabled-but-floorless QoS changed the timeline")
	}
	if !reflect.DeepEqual(off.Combined, on.Combined) {
		t.Fatalf("enabled-but-floorless QoS changed the combined metrics")
	}
}

// TestShedMode pins graceful degradation: with an unreachable floor and
// an aggressive shed threshold, B's requests are eventually rejected
// with ErrShed, surfacing as failed accesses that still count in B's
// block total.
func TestShedMode(t *testing.T) {
	q := Config{Enabled: true, ShedAfter: 2}
	res := mustRun(t, 42, q, specA(1e12), specB())
	var b TenantResult
	for _, tr := range res.Tenants {
		if tr.Name == "tenantB" {
			b = tr
		}
	}
	if b.Errors == 0 {
		t.Fatalf("unreachable floor never shed tenant B requests")
	}
	var brep TenantReport
	for _, tr := range res.Report.Tenants {
		if tr.Name == "tenantB" {
			brep = tr
		}
	}
	if brep.Shed != int64(b.Errors) {
		t.Fatalf("shed count %d != tenant errors %d", brep.Shed, b.Errors)
	}
	if b.Metrics.Blocks == 0 {
		t.Fatalf("shed accesses must still count in B")
	}
}

// TestShedErrorIdentity pins the sentinel: the middleware's rejection
// wraps ErrShed.
func TestShedErrorIdentity(t *testing.T) {
	c, err := NewController(Config{Enabled: true}, Tenant{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	st := c.byName["x"]
	st.shedding = true
	c.prot = &tenantState{t: Tenant{Name: "p", Priority: 9, BPSFloor: 1}}
	e := sim.NewEngine(1)
	var got error
	layer := c.Middleware("x")(nopLayer{})
	e.Spawn("p", func(p *sim.Proc) {
		got = layer.Serve(p, newReq(p, 4096))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, ErrShed) {
		t.Fatalf("shed error = %v, want ErrShed", got)
	}
}

// TestInterferenceScores pins the LASSi-style risk direction: the
// small-request tenant occupies more than its metric share, the
// streaming tenant less.
func TestInterferenceScores(t *testing.T) {
	res := mustRun(t, 42, Config{}, specA(0), specB())
	var a, b TenantReport
	for _, tr := range res.Report.Tenants {
		switch tr.Name {
		case "tenantA":
			a = tr
		case "tenantB":
			b = tr
		}
	}
	if b.Score.Risk <= a.Score.Risk {
		t.Fatalf("interferer risk %.3f should exceed streamer risk %.3f", b.Score.Risk, a.Score.Risk)
	}
	if b.Score.Risk <= 1 {
		t.Fatalf("interferer risk %.3f should exceed 1 (occupancy share > metric share)", b.Score.Risk)
	}
}

// TestControllerValidation covers constructor errors.
func TestControllerValidation(t *testing.T) {
	if _, err := NewController(Config{}, Tenant{Name: ""}); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	if _, err := NewController(Config{}, Tenant{Name: "a"}, Tenant{Name: "a"}); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
}

// TestRunValidation covers RunSpec errors.
func TestRunValidation(t *testing.T) {
	e := sim.NewEngine(1)
	if _, err := Run(e, RunSpec{}); err == nil {
		t.Fatal("empty tenant list accepted")
	}
	e = sim.NewEngine(1)
	if _, err := Run(e, RunSpec{Tenants: []TenantSpec{{Tenant: Tenant{Name: "a"}}}}); err == nil {
		t.Fatal("zero-size workload accepted")
	}
	e = sim.NewEngine(1)
	ok := TenantSpec{Tenant: Tenant{Name: "a"}, Processes: 1, BytesPerProcess: 4096, RecordSize: 4096}
	if _, err := Run(e, RunSpec{Tenants: []TenantSpec{ok}}); err == nil {
		t.Fatal("run without a stack accepted")
	}
}

// TestTokenBucketDelays pins the virtual-time bucket arithmetic: at
// rate r with burst b, admitting 2b blocks from a cold start sleeps
// b/r seconds.
func TestTokenBucketDelays(t *testing.T) {
	c, err := NewController(Config{Enabled: true, MinRate: 1, BurstBlocks: 64}, Tenant{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	st := c.byName["x"]
	st.limited = true
	st.creditAt = bucketFull // fresh limit = full burst
	st.rate = 1024           // blocks/s
	e := sim.NewEngine(1)
	var elapsed sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		t0 := p.Now()
		c.admit(st, p, 128) // 64 burst + 64 over = 62.5 ms at 1024 blk/s
		elapsed = p.Now() - t0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(float64(64) / 1024 * float64(sim.Second))
	if diff := elapsed - want; diff < -sim.Microsecond || diff > sim.Microsecond {
		t.Fatalf("bucket delay %v, want ~%v", elapsed, want)
	}
	if st.delayed != 1 {
		t.Fatalf("delayed counter %d, want 1", st.delayed)
	}
}

// nopLayer completes requests instantly.
type nopLayer struct{}

func (nopLayer) Serve(*sim.Proc, *ioreq.Request) error { return nil }

// newReq builds a minimal request of the given size.
func newReq(p *sim.Proc, size int64) *ioreq.Request {
	return ioreq.New(p, ioreq.OpRead, 0, size, "f")
}
