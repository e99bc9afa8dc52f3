package device

import (
	"bps/internal/sim"
)

// RAMDisk is a near-instant device used in tests and as a memory-speed
// baseline: fixed tiny latency plus a very high transfer rate, unbounded
// concurrency.
type RAMDisk struct {
	capacity int64
	latency  sim.Time
	rate     float64
	busy     *sim.Resource
	ins      instruments
}

// ramConcurrency caps concurrent RAM-disk accesses; effectively unbounded
// for any workload in this repository while keeping busy-time accounting.
const ramConcurrency = 1 << 16

// NewRAMDisk constructs a RAM-backed device with the given per-request
// latency and transfer rate.
func NewRAMDisk(e *sim.Engine, name string, capacity int64, latency sim.Time, rate float64) *RAMDisk {
	if capacity <= 0 || rate <= 0 {
		panic("device: invalid RAMDisk config")
	}
	d := &RAMDisk{
		capacity: capacity,
		latency:  latency,
		rate:     rate,
		busy:     e.NewResource(name+".mem", ramConcurrency),
	}
	d.ins = newInstruments(e, name, d.busy)
	return d
}

// Capacity implements Device.
func (d *RAMDisk) Capacity() int64 { return d.capacity }

// Access implements Device.
func (d *RAMDisk) Access(p *sim.Proc, req Request) error {
	if err := req.Validate(d.capacity); err != nil {
		d.ins.errors.Add(1)
		return err
	}
	sp := d.ins.begin(p, req)
	d.busy.Acquire(p)
	svc := d.latency + sim.TransferTime(req.Size, d.rate)
	p.Sleep(svc)
	d.busy.Release()
	d.ins.done(req, svc)
	sp.End()
	return nil
}
