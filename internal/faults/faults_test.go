package faults

import (
	"errors"
	"strings"
	"testing"

	"bps/internal/device"
	"bps/internal/netsim"
	"bps/internal/obs"
	"bps/internal/pfs"
	"bps/internal/sim"
)

// TestDeriveSeedMatchesExperiments pins deriveSeed against the same
// constants experiments.TestDeriveSeedPinned pins for DeriveSeed. The
// two implementations must agree forever: the fault plan promises that
// its streams use the experiment runner's derivation scheme, and this
// package cannot import experiments (the dependency runs the other way).
func TestDeriveSeedMatchesExperiments(t *testing.T) {
	pinned := map[[2]string]int64{
		{"set1", "local-hdd"}: -1083276964539255126,
		{"set1", "pvfs-8s"}:   5539543175295217317,
		{"set2-hdd", "4KB"}:   4562652203324125485,
	}
	for key, want := range pinned {
		if got := deriveSeed(42, key[0], key[1]); got != want {
			t.Errorf("deriveSeed(42, %q, %q) = %d, want %d (diverged from experiments.DeriveSeed)",
				key[0], key[1], got, want)
		}
	}
	if deriveSeed(42, "ab", "c") == deriveSeed(42, "a", "bc") {
		t.Error("(stream, label) framing is ambiguous")
	}
}

func TestProfileZeroRateInjectsNothing(t *testing.T) {
	c := Profile(7, 0)
	if c.Enabled() {
		t.Fatalf("Profile(seed, 0) = %+v, want the zero Config", c)
	}
	if c != (Config{}) {
		t.Fatalf("Profile(seed, 0) = %+v, want exactly the zero value", c)
	}
	if NewLink(c) != nil {
		t.Error("zero profile built a link-fault model")
	}
	sf := NewServerFaults(c, 0)
	if sf.Down(0) || sf.Down(sim.Second) || sf.SlowDelay(sim.Second) != 0 || sf.dead {
		t.Error("zero profile's server faults misbehave")
	}
}

func TestProfileEnablesEveryLayer(t *testing.T) {
	c := Profile(7, 0.01)
	if !c.Device.enabled() || !c.Network.enabled() || !c.ServerEnabled() {
		t.Fatalf("Profile(seed, 0.01) leaves a layer healthy: %+v", c)
	}
}

func TestWrapDeviceDisabledPassThrough(t *testing.T) {
	e := sim.NewEngine(1)
	inner := device.NewRAMDisk(e, "ram", 1<<30, sim.Microsecond, 1e9)
	if got := WrapDevice(e, inner, Config{}, "x"); got != device.Device(inner) {
		t.Error("WrapDevice with a disabled plan did not return the inner device unchanged")
	}
}

// TestWindowsPure checks the stateless window schedule: pure in t,
// inactive outside the duration, degenerate rates behave, and distinct
// seeds give distinct schedules.
func TestWindowsPure(t *testing.T) {
	w := Windows{Seed: 99, Period: 10 * sim.Millisecond, Duration: 2 * sim.Millisecond, Rate: 0.5}
	times := []sim.Time{0, sim.Millisecond, 3 * sim.Millisecond, 15 * sim.Millisecond, 21 * sim.Millisecond, 995 * sim.Millisecond}
	first := make([]bool, len(times))
	for i, tt := range times {
		first[i] = w.Active(tt)
	}
	// Re-query in reverse: answers must not depend on call order.
	for i := len(times) - 1; i >= 0; i-- {
		if w.Active(times[i]) != first[i] {
			t.Fatalf("Active(%v) changed between queries", times[i])
		}
	}
	for tt := sim.Time(0); tt < sim.Second; tt += 500 * sim.Microsecond {
		if w.Active(tt) && tt%w.Period >= w.Duration {
			t.Fatalf("Active(%v) outside the window duration", tt)
		}
	}
	always := Windows{Seed: 99, Period: 10 * sim.Millisecond, Duration: 2 * sim.Millisecond, Rate: 1}
	if !always.Active(0) || !always.Active(10*sim.Millisecond) || always.Active(2*sim.Millisecond) {
		t.Error("Rate=1 window schedule wrong")
	}
	never := Windows{Seed: 99, Period: 10 * sim.Millisecond, Duration: 2 * sim.Millisecond, Rate: 0}
	for tt := sim.Time(0); tt < sim.Second; tt += sim.Millisecond {
		if never.Active(tt) {
			t.Fatalf("Rate=0 window active at %v", tt)
		}
	}
	if (Windows{}).Active(0) {
		t.Error("zero-value window active")
	}
	other := Windows{Seed: 100, Period: 10 * sim.Millisecond, Duration: 2 * sim.Millisecond, Rate: 0.5}
	same := true
	for i := sim.Time(0); i < sim.Second; i += 10 * sim.Millisecond {
		if w.Active(i) != other.Active(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("two seeds produced identical 100-period schedules")
	}
}

// TestServerFaultsIndependentPerServer checks that servers draw from
// distinct streams: with aggressive rates, 8 servers should not share
// one fail schedule.
func TestServerFaultsIndependentPerServer(t *testing.T) {
	c := Profile(3, 0.5)
	schedule := func(id int) string {
		sf := NewServerFaults(c, id)
		var b []byte
		for tt := sim.Time(0); tt < sim.Second; tt += 5 * sim.Millisecond {
			if sf.Down(tt) {
				b = append(b, '1')
			} else {
				b = append(b, '0')
			}
		}
		return string(b)
	}
	base := schedule(0)
	distinct := false
	for id := 1; id < 8; id++ {
		if schedule(id) != base {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Error("8 servers share one fault schedule")
	}
	// And the view itself is pure: rebuilding gives the same schedule.
	if schedule(0) != base {
		t.Error("rebuilding a server's fault view changed its schedule")
	}
}

// errorPattern runs n sequential accesses against dev inside a sim proc
// and records which ones fail.
func errorPattern(t *testing.T, e *sim.Engine, dev device.Device, n int) []bool {
	t.Helper()
	out := make([]bool, n)
	e.Spawn("probe", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			err := dev.Access(p, device.Request{Offset: int64(i) * 4096, Size: 4096})
			if err != nil && !errors.Is(err, device.ErrInjectedFault) {
				t.Errorf("access %d: unexpected error %v", i, err)
			}
			out[i] = err != nil
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEveryNth pins the clock-like injector: every third access fails
// with ErrInjectedFault, yet failed accesses are still serviced in full
// and counted in the inner device's registry metrics.
func TestEveryNth(t *testing.T) {
	e := sim.NewEngine(1)
	reg := obs.Attach(e, obs.Options{}).Registry()
	d := NewEveryNth(device.NewRAMDisk(e, "ram", 1<<30, 0, 1e9), 3)
	pat := errorPattern(t, e, d, 9)
	for i, failed := range pat {
		if want := (i+1)%3 == 0; failed != want {
			t.Fatalf("access %d: failed=%v, want %v", i, failed, want)
		}
	}
	ops := reg.Histogram("device/ram/service_ns").Count()
	if read := reg.Counter("device/ram/bytes_read").Value(); ops != 9 || read != 9*4096 {
		t.Fatalf("ops=%d bytes_read=%d, faulted ops should still be serviced", ops, read)
	}
}

// TestDirectPathJoinsAllServerErrors: the non-recovery pfs path
// aggregates every failing server instead of reporting only the first.
func TestDirectPathJoinsAllServerErrors(t *testing.T) {
	e := sim.NewEngine(1)
	fabric := netsim.NewFabric(e, netsim.DefaultGigabit())
	devs := make([]device.Device, 2)
	for i := range devs {
		// Every access fails after full service time.
		devs[i] = NewEveryNth(device.NewRAMDisk(e, "ram", 16<<30, 10*sim.Microsecond, 500e6), 1)
	}
	c := pfs.NewCluster(e, fabric, pfs.Config{}, devs)
	cl := c.NewClient("client0")
	var readErr error
	e.Spawn("app", func(p *sim.Proc) {
		f, err := c.Create("data", 1<<20, c.DefaultLayout())
		if err != nil {
			t.Error(err)
			return
		}
		readErr = cl.Read(p, f, 0, 128<<10)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readErr == nil {
		t.Fatal("read on all-failing devices succeeded")
	}
	if !errors.Is(readErr, device.ErrInjectedFault) {
		t.Fatalf("err = %v, want ErrInjectedFault in the chain", readErr)
	}
	if !strings.Contains(readErr.Error(), "ios0") || !strings.Contains(readErr.Error(), "ios1") {
		t.Fatalf("err = %v, want both failing servers named", readErr)
	}
}

// TestInjectorDeterministicPerLabel checks the wrapped device's fault
// stream is a pure function of (plan seed, label): same label → same
// pattern on a fresh engine; different label → different pattern.
func TestInjectorDeterministicPerLabel(t *testing.T) {
	plan := Profile(11, 0.2)
	plan.Server = ServerConfig{}
	plan.Network = NetworkConfig{}
	pattern := func(label string) []bool {
		e := sim.NewEngine(1)
		dev := WrapDevice(e, device.NewRAMDisk(e, "ram", 1<<30, sim.Microsecond, 1e9), plan, label)
		return errorPattern(t, e, dev, 64)
	}
	a, b := pattern("ios0.hdd"), pattern("ios0.hdd")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d differs across identical runs", i)
		}
	}
	c := pattern("ios1.hdd")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("two labels share one fault stream")
	}
}

// TestLinkPerturbDeterministic checks the link stream replays exactly.
func TestLinkPerturbDeterministic(t *testing.T) {
	c := Profile(5, 0.3)
	seq := func() []int {
		l := NewLink(c)
		out := make([]int, 200)
		for i := range out {
			rt, d := l.Perturb(1 << 20)
			out[i] = rt
			if d > 0 {
				out[i] += 2
			}
		}
		return out
	}
	a, b := seq(), seq()
	sawFault := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical links", i)
		}
		if a[i] != 0 {
			sawFault = true
		}
	}
	if !sawFault {
		t.Error("200 draws at rate 0.3 injected nothing")
	}
}

func TestClamp01(t *testing.T) {
	cases := map[float64]float64{-1: 0, 0: 0, 0.5: 0.5, 1: 1, 2: 1}
	for in, want := range cases {
		if got := clamp01(in); got != want {
			t.Errorf("clamp01(%g) = %g, want %g", in, got, want)
		}
	}
	if clamp01(nan()) != 0 {
		t.Error("clamp01(NaN) != 0")
	}
}

func nan() float64 { z := 0.0; return z / z }
