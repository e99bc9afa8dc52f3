// Package roofline computes the analytic BPS ceiling of a simulated
// I/O configuration — the BOPS-style roof a measured run can be held
// against. The model has two roofs, mirroring the classic roofline's
// bandwidth and compute ceilings:
//
//   - a bandwidth roof: the tightest aggregate byte rate on the data
//     path (devices, client NICs, server NICs, switch backplane),
//     divided into 512-byte blocks;
//   - an operation roof: with per-request fixed costs (device command
//     overhead, media latency, link round trips), at most
//     concurrency/perOp requests complete per second, each delivering
//     one record's worth of blocks.
//
// The achievable BPS is the lower of the two. Small records are
// op-bound, large records bandwidth-bound — exactly the regimes the
// record-size sweeps walk. Headroom = measured BPS / ceiling says how
// far from the roof a run sits; the attribution profiler says which
// layer keeps it there.
//
// The parameters come from the same knobs internal/testbed holds, so
// the model and the simulation can never drift apart silently: both
// read device.DefaultHDD/DefaultSSD and the testbed fabric constants.
package roofline

import (
	"math"

	"bps/internal/device"
	"bps/internal/sim"
	"bps/internal/testbed"
	"bps/internal/trace"
)

// Model holds the roofline parameters of one I/O configuration.
type Model struct {
	// DeviceBytesPerSec is one server device's peak sequential rate.
	DeviceBytesPerSec float64

	// DevicePerOp is the fixed per-request device cost (command
	// overhead plus media latency) that bounds small-request rates.
	DevicePerOp sim.Time

	// Servers and Clients count the I/O servers and client nodes; a
	// local (direct-attached) model has Servers == 1, Clients == 1 and
	// no link.
	Servers int
	Clients int

	// LinkBytesPerSec is the per-NIC line rate; 0 means no network on
	// the path (local stacks).
	LinkBytesPerSec float64

	// LinkRTT is the request/response propagation round trip each
	// remote operation pays; 0 for local stacks.
	LinkRTT sim.Time

	// BackplaneBytesPerSec caps the aggregate fabric rate; 0 means
	// unbounded.
	BackplaneBytesPerSec float64
}

// FromMedia returns the per-device roof parameters of a testbed medium.
func FromMedia(m testbed.Media) (bytesPerSec float64, perOp sim.Time) {
	if m == testbed.SSD {
		cfg := device.DefaultSSD()
		return float64(cfg.Channels) * cfg.ChannelRate, cfg.CommandOverhead + cfg.ReadLatency
	}
	cfg := device.DefaultHDD()
	return cfg.OuterRate, cfg.CommandOverhead + cfg.SettleTime
}

// Local returns the model of a direct-attached stack on one device.
func Local(m testbed.Media) Model {
	rate, perOp := FromMedia(m)
	return Model{DeviceBytesPerSec: rate, DevicePerOp: perOp, Servers: 1, Clients: 1}
}

// FromCluster returns the model of a PVFS-like testbed cluster: the
// spec's server/client counts and media over the testbed's Gigabit
// fabric with its shared backplane.
func FromCluster(spec testbed.ClusterSpec) Model {
	rate, perOp := FromMedia(spec.Media)
	return Model{
		DeviceBytesPerSec:    rate,
		DevicePerOp:          perOp,
		Servers:              spec.Servers,
		Clients:              spec.Clients,
		LinkBytesPerSec:      125e6, // the testbed's Gigabit NICs
		LinkRTT:              2 * 50 * sim.Microsecond,
		BackplaneBytesPerSec: testbed.BackplaneRate,
	}
}

// BandwidthCeiling returns the tightest aggregate byte rate on the
// data path (bytes/second): device aggregate, client NIC aggregate,
// server NIC aggregate, and backplane, whichever binds first.
func (m Model) BandwidthCeiling() float64 {
	servers, clients := m.Servers, m.Clients
	if servers < 1 {
		servers = 1
	}
	if clients < 1 {
		clients = 1
	}
	roof := float64(servers) * m.DeviceBytesPerSec
	if m.LinkBytesPerSec > 0 {
		if r := float64(clients) * m.LinkBytesPerSec; r < roof {
			roof = r
		}
		if r := float64(servers) * m.LinkBytesPerSec; r < roof {
			roof = r
		}
	}
	if m.BackplaneBytesPerSec > 0 && m.BackplaneBytesPerSec < roof {
		roof = m.BackplaneBytesPerSec
	}
	return roof
}

// PerOp returns the fixed cost of one remote record request under this
// model: device per-request cost plus the link round trip plus any
// workload-specific extra (a metadata RPC, a think time).
func (m Model) PerOp(extra sim.Time) sim.Time {
	return m.DevicePerOp + m.LinkRTT + extra
}

// CeilingBPS returns the achievable BPS roof (512-byte blocks per
// second of busy time) for concurrency requesters issuing recordBytes
// records, each paying extraPerOp of fixed non-device cost on top of
// the model's per-request costs. NaN when the record size is not
// positive.
func (m Model) CeilingBPS(recordBytes int64, concurrency int, extraPerOp sim.Time) float64 {
	if recordBytes <= 0 {
		return math.NaN()
	}
	if concurrency < 1 {
		concurrency = 1
	}
	bwRoof := m.BandwidthCeiling() / trace.BlockSize
	perOp := m.PerOp(extraPerOp)
	if perOp <= 0 {
		return bwRoof
	}
	opsPerSec := float64(concurrency) / perOp.Seconds()
	opRoof := opsPerSec * float64(trace.BlocksOf(recordBytes))
	if opRoof < bwRoof {
		return opRoof
	}
	return bwRoof
}

// Headroom returns measured/ceiling — the fraction of the analytic
// roof a run achieved. 0 when the ceiling is degenerate (zero or NaN),
// so absent models render as "no headroom data", never as Inf.
func Headroom(measuredBPS, ceilingBPS float64) float64 {
	if ceilingBPS <= 0 || math.IsNaN(ceilingBPS) || math.IsNaN(measuredBPS) {
		return 0
	}
	return measuredBPS / ceilingBPS
}
