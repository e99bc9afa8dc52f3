package roofline

import (
	"math"
	"testing"

	"bps/internal/device"
	"bps/internal/sim"
	"bps/internal/testbed"
	"bps/internal/trace"
)

// TestLocalMediaRoofs: the local models must reproduce the device
// defaults exactly — if a device default moves, the roofline must move
// with it, and this test pins the coupling.
func TestLocalMediaRoofs(t *testing.T) {
	ssd := Local(testbed.SSD)
	cfg := device.DefaultSSD()
	wantRate := float64(cfg.Channels) * cfg.ChannelRate
	if ssd.DeviceBytesPerSec != wantRate {
		t.Fatalf("SSD rate = %v, want %v", ssd.DeviceBytesPerSec, wantRate)
	}
	if ssd.DevicePerOp != cfg.CommandOverhead+cfg.ReadLatency {
		t.Fatalf("SSD per-op = %v, want %v", ssd.DevicePerOp, cfg.CommandOverhead+cfg.ReadLatency)
	}
	if got := ssd.BandwidthCeiling(); got != wantRate {
		t.Fatalf("local SSD bw ceiling = %v, want device rate %v", got, wantRate)
	}

	hdd := Local(testbed.HDD)
	hcfg := device.DefaultHDD()
	if hdd.DeviceBytesPerSec != hcfg.OuterRate {
		t.Fatalf("HDD rate = %v, want %v", hdd.DeviceBytesPerSec, hcfg.OuterRate)
	}
	if hdd.DevicePerOp != hcfg.CommandOverhead+hcfg.SettleTime {
		t.Fatalf("HDD per-op = %v, want %v", hdd.DevicePerOp, hcfg.CommandOverhead+hcfg.SettleTime)
	}
}

// TestClusterBandwidthCeiling: with one client the client NIC binds;
// with many clients and servers the backplane binds.
func TestClusterBandwidthCeiling(t *testing.T) {
	one := FromCluster(testbed.ClusterSpec{Servers: 4, Media: testbed.SSD, Clients: 1})
	if got := one.BandwidthCeiling(); got != 125e6 {
		t.Fatalf("1-client ceiling = %v, want client NIC 125e6", got)
	}
	many := FromCluster(testbed.ClusterSpec{Servers: 8, Media: testbed.SSD, Clients: 8})
	if got := many.BandwidthCeiling(); got != testbed.BackplaneRate {
		t.Fatalf("8×8 ceiling = %v, want backplane %v", got, testbed.BackplaneRate)
	}
	// Few servers on HDD: the devices themselves bind.
	disks := FromCluster(testbed.ClusterSpec{Servers: 2, Media: testbed.HDD, Clients: 8})
	want := 2 * device.DefaultHDD().OuterRate
	if got := disks.BandwidthCeiling(); got != want {
		t.Fatalf("2-HDD ceiling = %v, want device aggregate %v", got, want)
	}
}

// TestCeilingRegimes: small records must be op-bound, large records
// bandwidth-bound, and the crossover must be monotone in record size.
func TestCeilingRegimes(t *testing.T) {
	m := FromCluster(testbed.ClusterSpec{Servers: 4, Media: testbed.SSD, Clients: 1})
	bwRoof := m.BandwidthCeiling() / trace.BlockSize

	small := m.CeilingBPS(4<<10, 1, 0)
	if small >= bwRoof {
		t.Fatalf("4KB ceiling %v not op-bound (bw roof %v)", small, bwRoof)
	}
	// Hand-computed: 8 blocks per 4KB record / 180µs per op.
	wantSmall := 8.0 / m.PerOp(0).Seconds()
	if math.Abs(small-wantSmall) > 1e-6*wantSmall {
		t.Fatalf("4KB ceiling = %v, want %v", small, wantSmall)
	}

	large := m.CeilingBPS(4<<20, 1, 0)
	if large != bwRoof {
		t.Fatalf("4MB ceiling = %v, want bw roof %v", large, bwRoof)
	}

	prev := 0.0
	for size := int64(512); size <= 8<<20; size *= 2 {
		c := m.CeilingBPS(size, 1, 0)
		if c < prev {
			t.Fatalf("ceiling not monotone in record size: %d bytes → %v after %v", size, c, prev)
		}
		prev = c
	}
}

// TestCeilingExtraPerOp: extra fixed cost can only lower the ceiling.
func TestCeilingExtraPerOp(t *testing.T) {
	m := FromCluster(testbed.ClusterSpec{Servers: 4, Media: testbed.SSD, Clients: 4})
	base := m.CeilingBPS(16<<10, 4, 0)
	taxed := m.CeilingBPS(16<<10, 4, 200*sim.Microsecond)
	if taxed >= base {
		t.Fatalf("extra per-op cost raised the ceiling: %v → %v", base, taxed)
	}
}

// TestHeadroomEdgeCases: degenerate ceilings give 0, never Inf/NaN.
func TestHeadroomEdgeCases(t *testing.T) {
	if h := Headroom(100, 0); h != 0 {
		t.Fatalf("zero ceiling headroom = %v, want 0", h)
	}
	if h := Headroom(100, math.NaN()); h != 0 {
		t.Fatalf("NaN ceiling headroom = %v, want 0", h)
	}
	if h := Headroom(math.NaN(), 100); h != 0 {
		t.Fatalf("NaN measurement headroom = %v, want 0", h)
	}
	if h := Headroom(50, 100); h != 0.5 {
		t.Fatalf("headroom = %v, want 0.5", h)
	}
	if c := Local(testbed.SSD).CeilingBPS(0, 1, 0); !math.IsNaN(c) {
		t.Fatalf("zero-record ceiling = %v, want NaN", c)
	}
}

// TestFit: fits preserve order and classify the binding roof.
// BenchmarkRooflineCeiling is benchguard-tracked: the ceiling sits on
// live serving paths (every publisher snapshot), so it must stay cheap.
func BenchmarkRooflineCeiling(b *testing.B) {
	m := FromCluster(testbed.ClusterSpec{Servers: 4, Media: testbed.SSD, Clients: 4})
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.CeilingBPS(64<<10, 4, 0)
	}
	_ = sink
}
