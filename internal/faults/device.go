package faults

import (
	"math/rand"

	"bps/internal/device"
	"bps/internal/obs"
	"bps/internal/sim"
)

// Injector wraps a device.Device and applies the plan's device-layer
// misbehavior: transient errors (full service time consumed, then
// device.ErrInjectedFault — the access the BPS paper still counts in B),
// latency stragglers, and throughput degradation.
//
// Each injector owns a private RNG stream seeded from
// (Config.Seed, "device", label), so two devices in the same plan
// misbehave independently and reordering unrelated draws elsewhere in
// the simulation cannot shift this device's fault pattern.
type Injector struct {
	inner device.Device
	cfg   DeviceConfig
	rng   *rand.Rand

	// Observability handles; nil-safe on unobserved engines.
	injected *obs.Counter
	stalls   *obs.Counter
	degraded *obs.Counter
}

// WrapDevice wraps inner with c's device-layer plan. label identifies
// the device within the plan — it keys the RNG stream and the metric
// names, so give each wrapped device a distinct label (device config
// names often repeat, e.g. every testbed HDD is "hdd"). When the plan's
// device layer is disabled the inner device is returned unchanged, so
// a zero-rate sweep point runs the exact unwrapped code path.
func WrapDevice(e *sim.Engine, inner device.Device, c Config, label string) device.Device {
	if !c.Device.enabled() {
		return inner
	}
	cfg := c.Device
	cfg.ErrorRate = clamp01(cfg.ErrorRate)
	cfg.StragglerRate = clamp01(cfg.StragglerRate)
	cfg.DegradeRate = clamp01(cfg.DegradeRate)
	reg := obs.Get(e).Registry()
	base := "faults/device/" + label + "/"
	return &Injector{
		inner:    inner,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(deriveSeed(c.Seed, "device", label))),
		injected: reg.Counter(base + "errors"),
		stalls:   reg.Counter(base + "stalls"),
		degraded: reg.Counter(base + "degraded"),
	}
}

// Capacity implements Device.
func (f *Injector) Capacity() int64 { return f.inner.Capacity() }

// Access implements Device. The inner access always runs first, so
// injected faults consume the full service time of the request they
// fail; straggler and degradation stalls extend it further.
func (f *Injector) Access(p *sim.Proc, req device.Request) error {
	if err := f.inner.Access(p, req); err != nil {
		return err
	}
	if f.cfg.StragglerRate > 0 && f.rng.Float64() < f.cfg.StragglerRate {
		f.stalls.Add(1)
		p.Sleep(f.cfg.StragglerDelay)
	}
	if f.cfg.DegradeRate > 0 && f.rng.Float64() < f.cfg.DegradeRate {
		f.degraded.Add(1)
		p.Sleep(sim.TransferTime(req.Size, f.cfg.DegradedRate))
	}
	if f.cfg.ErrorRate > 0 && f.rng.Float64() < f.cfg.ErrorRate {
		f.injected.Add(1)
		return device.ErrInjectedFault
	}
	return nil
}

// EveryNth wraps a device and fails every nth request, 1-based and
// counted after the inner access succeeds, for stacks that want a
// clock-like fault pattern instead of a seeded plan. A failed request
// still consumes the inner device's full service time, modelling a
// failed access that the BPS paper still counts in B.
type EveryNth struct {
	inner device.Device
	every uint64
	n     uint64
}

// NewEveryNth wraps inner, failing request numbers k·every.
// every == 0 disables injection.
func NewEveryNth(inner device.Device, every uint64) *EveryNth {
	return &EveryNth{inner: inner, every: every}
}

// Capacity implements Device.
func (f *EveryNth) Capacity() int64 { return f.inner.Capacity() }

// Access implements Device.
func (f *EveryNth) Access(p *sim.Proc, req device.Request) error {
	if err := f.inner.Access(p, req); err != nil {
		return err
	}
	f.n++
	if f.every > 0 && f.n%f.every == 0 {
		return device.ErrInjectedFault
	}
	return nil
}
