package device

import (
	"math"

	"bps/internal/sim"
)

// HDDConfig parameterizes a rotating disk. The defaults (see DefaultHDD)
// approximate the 250 GB 7200 RPM SATA-II drive used in the BPS paper's
// testbed.
type HDDConfig struct {
	Name     string
	Capacity int64 // bytes

	RPM float64 // spindle speed; rotational period = 60/RPM seconds

	// Seek curve: a request at distance d bytes from the current head
	// position costs SettleTime + (SeekMax−SettleTime)·sqrt(d/Capacity).
	// The square-root shape is the classic accelerate–coast–settle model.
	SettleTime sim.Time // minimum head repositioning time (track-to-track)
	SeekMax    sim.Time // full-stroke seek

	// Zoned transfer: media rate interpolates linearly from OuterRate at
	// offset 0 to OuterRate·InnerRateRatio at the last byte, matching the
	// higher linear density of outer tracks.
	OuterRate      float64 // bytes/second at offset 0
	InnerRateRatio float64 // (0,1]; inner-track rate as a fraction of outer

	// SequentialWindow is how close (in bytes) a request must start to the
	// current head position to be treated as streaming: no seek and no
	// rotational delay.
	SequentialWindow int64

	// CommandOverhead is charged once per request (controller, bus).
	CommandOverhead sim.Time

	// WritePenalty multiplies the media-transfer portion of writes
	// (write-verify, head switching); 1 means symmetric.
	WritePenalty float64
}

// DefaultHDD returns a configuration approximating the paper's 250 GB
// 7200 RPM SATA-II disk: ~8.5 ms average seek, ~4.17 ms average rotational
// latency, ~110 MB/s outer-zone streaming rate.
func DefaultHDD() HDDConfig {
	return HDDConfig{
		Name:             "hdd",
		Capacity:         250e9,
		RPM:              7200,
		SettleTime:       500 * sim.Microsecond,
		SeekMax:          12 * sim.Millisecond,
		OuterRate:        110e6,
		InnerRateRatio:   0.55,
		SequentialWindow: 1 << 20,
		CommandOverhead:  100 * sim.Microsecond,
		WritePenalty:     1.05,
	}
}

// HDD is a simulated rotating disk with a single head: requests are
// serviced one at a time in FIFO order, so concurrent access produces
// queueing contention.
type HDD struct {
	cfg  HDDConfig
	head *sim.Resource
	rng  randSource
	ins  instruments

	headPos int64 // byte offset just past the last serviced request
}

// randSource is the subset of math/rand used by devices, factored out so
// tests can substitute a fixed source.
type randSource interface {
	Float64() float64
}

// NewHDD constructs an HDD bound to the engine. Invalid configurations
// panic: device construction happens at simulation-setup time where a
// loud failure is preferable to a silently wrong model.
func NewHDD(e *sim.Engine, cfg HDDConfig) *HDD {
	if cfg.Capacity <= 0 || cfg.RPM <= 0 || cfg.OuterRate <= 0 {
		panic("device: invalid HDD config: capacity, RPM and OuterRate must be positive")
	}
	if cfg.InnerRateRatio <= 0 || cfg.InnerRateRatio > 1 {
		panic("device: invalid HDD config: InnerRateRatio must be in (0,1]")
	}
	if cfg.WritePenalty < 1 {
		cfg.WritePenalty = 1
	}
	d := &HDD{
		cfg:  cfg,
		head: e.NewResource(cfg.Name+".head", 1),
		rng:  e.Rand(),
	}
	d.ins = newInstruments(e, cfg.Name, d.head)
	return d
}

// Capacity implements Device.
func (d *HDD) Capacity() int64 { return d.cfg.Capacity }

// rotPeriod returns one full revolution.
func (d *HDD) rotPeriod() sim.Time {
	return sim.FromSeconds(60.0 / d.cfg.RPM)
}

// rateAt returns the media rate at a byte offset (zoned).
func (d *HDD) rateAt(offset int64) float64 {
	frac := float64(offset) / float64(d.cfg.Capacity)
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	return d.cfg.OuterRate * (1 - (1-d.cfg.InnerRateRatio)*frac)
}

// seekTime returns the head-repositioning cost for a given byte distance.
func (d *HDD) seekTime(dist int64) sim.Time {
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	frac := math.Sqrt(float64(dist) / float64(d.cfg.Capacity))
	return d.cfg.SettleTime + sim.Time(frac*float64(d.cfg.SeekMax-d.cfg.SettleTime))
}

// serviceTime computes the full service time for a request given the
// current head position, including a rotational latency draw.
func (d *HDD) serviceTime(req Request) sim.Time {
	t := d.cfg.CommandOverhead
	dist := req.Offset - d.headPos
	if dist < 0 {
		dist = -dist
	}
	if dist > d.cfg.SequentialWindow {
		t += d.seekTime(dist)
		// Rotational latency: uniform over one revolution.
		t += sim.Time(d.rng.Float64() * float64(d.rotPeriod()))
	} else if dist != 0 {
		// Near miss: settle plus partial rotation.
		t += d.cfg.SettleTime
		t += sim.Time(d.rng.Float64() * 0.25 * float64(d.rotPeriod()))
	}
	xfer := sim.TransferTime(req.Size, d.rateAt(req.Offset))
	if req.Write {
		xfer = sim.Time(float64(xfer) * d.cfg.WritePenalty)
	}
	return t + xfer
}

// Access implements Device. The request seizes the (single) head, pays
// seek + rotation + transfer, and advances the head position.
func (d *HDD) Access(p *sim.Proc, req Request) error {
	if err := req.Validate(d.cfg.Capacity); err != nil {
		d.ins.errors.Add(1)
		return err
	}
	sp := d.ins.begin(p, req) // span covers queueing + service
	d.head.Acquire(p)
	svc := d.serviceTime(req)
	p.Sleep(svc)
	d.headPos = req.End()
	d.head.Release()
	d.ins.done(req, svc)
	sp.End()
	return nil
}
