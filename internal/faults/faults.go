// Package faults provides a seed-deterministic fault plan for the
// simulated I/O stack. One Config describes what misbehaves — transient
// device errors, latency stragglers, throughput degradation, network
// drops and delays, per-server fail/slow windows, and permanent server
// death — and the per-layer adaptors (WrapDevice, NewLink,
// NewServerFaults) instantiate it on a specific engine.
//
// Determinism contract: everything a plan injects is a pure function of
// (Config.Seed, component identity, simulated state). Per-component RNG
// streams are seeded with the same FNV-1a derivation scheme the
// experiment runner uses for engine seeds, and window activity is a
// stateless hash of (seed, period index), so parallel sweep runs remain
// bit-identical to sequential ones.
package faults

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"bps/internal/sim"
)

// DeviceConfig describes per-access device misbehavior. All rates are
// probabilities in [0, 1] drawn independently per access.
type DeviceConfig struct {
	// ErrorRate is the probability an access fails transiently: it
	// consumes its full service time and then returns
	// device.ErrInjectedFault — the paper's unsuccessful-but-counted
	// access (§III.A).
	ErrorRate float64

	// StragglerRate is the probability an access stalls for an extra
	// StragglerDelay after service (a slow sector, an internal retry).
	StragglerRate  float64
	StragglerDelay sim.Time

	// DegradeRate is the probability an access additionally clocks its
	// payload through a DegradedRate bytes/s bottleneck (media falling
	// back to a slow path).
	DegradeRate  float64
	DegradedRate float64
}

func (c DeviceConfig) enabled() bool {
	return c.ErrorRate > 0 || (c.StragglerRate > 0 && c.StragglerDelay > 0) ||
		(c.DegradeRate > 0 && c.DegradedRate > 0)
}

// NetworkConfig describes link-level misbehavior applied per transfer.
type NetworkConfig struct {
	// DropRate is the probability a transfer loses its first copy and
	// pays one full retransmission through the sender's NIC.
	DropRate float64

	// DelayRate is the probability a transfer is held for an extra
	// Delay in the switch (congestion, a slow path).
	DelayRate float64
	Delay     sim.Time
}

func (c NetworkConfig) enabled() bool {
	return c.DropRate > 0 || (c.DelayRate > 0 && c.Delay > 0)
}

// ServerConfig describes PFS-server misbehavior: recurring fail/slow
// windows plus optional permanent death.
type ServerConfig struct {
	// Period and Duration set the window geometry: each Period-long
	// slot independently activates (per the rates below) and an active
	// slot misbehaves for its first Duration.
	Period   sim.Time
	Duration sim.Time

	// FailRate is the per-period probability of a fail window, during
	// which the server silently drops incoming jobs (clients see RPC
	// timeouts).
	FailRate float64

	// SlowRate is the per-period probability of a slow window, during
	// which every job pays an extra SlowDelay of service time.
	SlowRate  float64
	SlowDelay sim.Time

	// DeadRate is the probability a given server dies permanently at
	// DeadAt and never services another job.
	DeadRate float64
	DeadAt   sim.Time
}

func (c ServerConfig) enabled() bool {
	return (c.Period > 0 && c.Duration > 0 && (c.FailRate > 0 || (c.SlowRate > 0 && c.SlowDelay > 0))) ||
		c.DeadRate > 0
}

// Config is a complete fault plan. The zero value injects nothing.
type Config struct {
	// Seed roots every derived RNG stream and window hash.
	Seed int64

	Device  DeviceConfig
	Network NetworkConfig
	Server  ServerConfig
}

// Enabled reports whether the plan injects anything at all.
func (c Config) Enabled() bool {
	return c.Device.enabled() || c.Network.enabled() || c.Server.enabled()
}

// ServerEnabled reports whether the PFS-server layer misbehaves.
func (c Config) ServerEnabled() bool { return c.Server.enabled() }

// Profile returns the canonical degradation plan used by the FaultSweep
// experiments: every layer misbehaves with intensity proportional to
// rate (rate ≈ the probability an individual device access fails).
// rate <= 0 returns the zero Config, which injects nothing.
func Profile(seed int64, rate float64) Config {
	if rate <= 0 {
		return Config{}
	}
	return Config{
		Seed: seed,
		Device: DeviceConfig{
			ErrorRate:      rate,
			StragglerRate:  rate / 2,
			StragglerDelay: 2 * sim.Millisecond,
			DegradeRate:    rate,
			DegradedRate:   40e6,
		},
		Network: NetworkConfig{
			DropRate:  rate / 4,
			DelayRate: rate / 2,
			Delay:     200 * sim.Microsecond,
		},
		Server: ServerConfig{
			Period:    50 * sim.Millisecond,
			Duration:  10 * sim.Millisecond,
			FailRate:  rate / 2,
			SlowRate:  rate,
			SlowDelay: sim.Millisecond,
			DeadRate:  rate / 2,
			DeadAt:    20 * sim.Millisecond,
		},
	}
}

// deriveSeed mirrors the experiment runner's DeriveSeed: FNV-1a over the
// 8-byte little-endian base seed, a stream ID, a zero separator, and a
// component label. Reimplemented here (it is four lines of hashing) so
// the faults package stays importable from every layer without pulling
// in the experiments package.
func deriveSeed(base int64, stream, label string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(stream))
	h.Write([]byte{0})
	h.Write([]byte(label))
	return int64(h.Sum64())
}

// hash01 maps a derived seed to a uniform float64 in [0, 1).
func hash01(seed int64) float64 {
	// Re-hash so consecutive seeds do not map to correlated values.
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// Windows deterministically marks recurring time windows as active
// without any mutable state: period index i activates when
// hash(seed, i) < Rate, and an active period misbehaves for its first
// Duration. Being a pure function of (seed, t), it gives every observer
// the same answer regardless of query order — the property that keeps
// parallel runs bit-identical.
type Windows struct {
	Seed     int64
	Period   sim.Time
	Duration sim.Time
	Rate     float64
}

// Active reports whether t falls inside an active window.
func (w Windows) Active(t sim.Time) bool {
	if w.Period <= 0 || w.Duration <= 0 || w.Rate <= 0 || t < 0 {
		return false
	}
	idx := int64(t / w.Period)
	if t%w.Period >= w.Duration {
		return false
	}
	if w.Rate >= 1 {
		return true
	}
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(w.Seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(idx))
	h.Write(b[:])
	return float64(h.Sum64()>>11)/float64(1<<53) < w.Rate
}

// clamp01 bounds a probability into [0, 1]; NaN becomes 0.
func clamp01(p float64) float64 {
	if math.IsNaN(p) || p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
