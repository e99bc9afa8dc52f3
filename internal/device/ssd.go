package device

import (
	"bps/internal/sim"
)

// SSDConfig parameterizes a flash SSD. The defaults (see DefaultSSD)
// approximate the PCI-E X4 100 GB SSD in the BPS paper's testbed.
type SSDConfig struct {
	Name     string
	Capacity int64 // bytes

	// Channels is the number of independent flash channels. A request is
	// striped across min(Channels, ceil(Size/ChannelChunk)) channels, so
	// large requests approach Channels×ChannelRate while small requests
	// are latency-bound.
	Channels     int
	ChannelRate  float64 // bytes/second per channel
	ChannelChunk int64   // striping granularity in bytes

	ReadLatency     sim.Time // per-request flash read latency
	WriteLatency    sim.Time // per-request program latency
	CommandOverhead sim.Time // controller/bus cost per request

	// WriteAmplification (≥ 1, default 1) multiplies the NAND traffic of
	// every write — the FTL's garbage-collection overhead. Write service
	// time scales with the amplified size, and the amplified bytes count
	// toward the next garbage-collection pause.
	WriteAmplification float64

	// GCPauseEvery and GCPause model foreground garbage collection: after
	// every GCPauseEvery bytes of NAND writes the device stalls all
	// channels for GCPause (0 disables), producing the latency spikes
	// real drives show under sustained writes.
	GCPauseEvery int64
	GCPause      sim.Time
}

// DefaultSSD returns a configuration approximating the paper's PCI-E X4
// 100 GB SSD: ~60 µs read latency, ~800 MB/s peak sequential read across
// 8 channels.
func DefaultSSD() SSDConfig {
	return SSDConfig{
		Name:            "ssd",
		Capacity:        100e9,
		Channels:        8,
		ChannelRate:     100e6,
		ChannelChunk:    64 << 10,
		ReadLatency:     60 * sim.Microsecond,
		WriteLatency:    250 * sim.Microsecond,
		CommandOverhead: 20 * sim.Microsecond,
	}
}

// SSD is a simulated flash device. Each request atomically acquires the
// channels it stripes across; independent requests proceed in parallel as
// long as free channels remain, which is what rewards I/O concurrency on
// flash.
type SSD struct {
	cfg      SSDConfig
	channels *sim.Resource
	ins      instruments

	gcCredit int64 // NAND bytes written since the last GC pause
}

// NewSSD constructs an SSD bound to the engine. Invalid configurations
// panic at construction.
func NewSSD(e *sim.Engine, cfg SSDConfig) *SSD {
	if cfg.Capacity <= 0 || cfg.Channels < 1 || cfg.ChannelRate <= 0 {
		panic("device: invalid SSD config: capacity, channels and rate must be positive")
	}
	if cfg.ChannelChunk <= 0 {
		cfg.ChannelChunk = 64 << 10
	}
	if cfg.WriteAmplification < 1 {
		cfg.WriteAmplification = 1
	}
	d := &SSD{
		cfg:      cfg,
		channels: e.NewResource(cfg.Name+".channels", cfg.Channels),
	}
	d.ins = newInstruments(e, cfg.Name, d.channels)
	return d
}

// Capacity implements Device.
func (d *SSD) Capacity() int64 { return d.cfg.Capacity }

// fanout returns how many channels a request of the given size stripes
// across.
func (d *SSD) fanout(size int64) int {
	chunks := (size + d.cfg.ChannelChunk - 1) / d.cfg.ChannelChunk
	if chunks < 1 {
		chunks = 1
	}
	if chunks > int64(d.cfg.Channels) {
		return d.cfg.Channels
	}
	return int(chunks)
}

// serviceTime returns the time to move the request across k channels.
// Writes transfer their amplified (NAND) size.
func (d *SSD) serviceTime(req Request, k int) sim.Time {
	t := d.cfg.CommandOverhead
	size := req.Size
	if req.Write {
		t += d.cfg.WriteLatency
		size = d.amplified(req.Size)
	} else {
		t += d.cfg.ReadLatency
	}
	return t + sim.TransferTime(size, float64(k)*d.cfg.ChannelRate)
}

// amplified returns the NAND traffic of a logical write.
func (d *SSD) amplified(size int64) int64 {
	return int64(float64(size)*d.cfg.WriteAmplification + 0.5)
}

// Access implements Device.
func (d *SSD) Access(p *sim.Proc, req Request) error {
	if err := req.Validate(d.cfg.Capacity); err != nil {
		d.ins.errors.Add(1)
		return err
	}
	k := d.fanout(req.Size)
	sp := d.ins.begin(p, req) // span covers channel wait + service
	d.channels.AcquireN(p, k)
	svc := d.serviceTime(req, k)
	p.Sleep(svc)
	if req.Write {
		d.gcCredit += d.amplified(req.Size)
	}
	d.channels.ReleaseN(k)
	d.ins.done(req, svc)
	sp.End()
	d.maybeGC(p)
	return nil
}

// maybeGC stalls the whole device for a garbage-collection pause when
// enough NAND traffic has accumulated. The writer that crosses the
// threshold pays the pause while holding every channel, so concurrent
// requests queue behind it — the foreground-GC latency spike.
func (d *SSD) maybeGC(p *sim.Proc) {
	if d.cfg.GCPauseEvery <= 0 || d.cfg.GCPause <= 0 {
		return
	}
	for d.gcCredit >= d.cfg.GCPauseEvery {
		d.gcCredit -= d.cfg.GCPauseEvery
		d.channels.AcquireN(p, d.cfg.Channels)
		p.Sleep(d.cfg.GCPause)
		d.channels.ReleaseN(d.cfg.Channels)
	}
}
