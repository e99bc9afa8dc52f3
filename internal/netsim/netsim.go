// Package netsim models a switched cluster interconnect (the BPS paper's
// Gigabit Ethernet) at the level that matters for I/O experiments: each
// node has a full-duplex NIC whose transmit and receive sides serialize
// traffic at line rate, and the switch adds fixed latency. Contention at a
// busy I/O server therefore shows up as queueing on that server's receive
// and transmit NIC resources.
package netsim

import (
	"bps/internal/obs"
	"bps/internal/sim"
)

// Config parameterizes a network fabric.
type Config struct {
	// Bandwidth is the per-NIC line rate in bytes/second.
	// Gigabit Ethernet ≈ 125e6.
	Bandwidth float64

	// Latency is the one-way propagation plus switching delay.
	Latency sim.Time

	// MTU splits large transfers into frames for pipelining granularity;
	// a transfer of n bytes pays per-frame overhead FrameOverhead on top
	// of serialization. Default 9000 (jumbo frames), overhead 1 µs.
	MTU           int64
	FrameOverhead sim.Time

	// BackplaneRate, when positive, models a finite switch backplane:
	// every transfer additionally serializes through a single shared
	// resource at this rate (bytes/second). Under high aggregate load the
	// backplane queues, which is how concurrent streams perturb each
	// other's response times even when they touch disjoint servers.
	BackplaneRate float64
}

// DefaultGigabit returns a Gigabit Ethernet fabric like the paper's
// testbed interconnect.
func DefaultGigabit() Config {
	return Config{
		Bandwidth:     125e6,
		Latency:       50 * sim.Microsecond,
		MTU:           9000,
		FrameOverhead: sim.Microsecond,
	}
}

func (c Config) withDefaults() Config {
	if c.Bandwidth <= 0 {
		c.Bandwidth = 125e6
	}
	if c.MTU <= 0 {
		c.MTU = 9000
	}
	return c
}

// LinkFaults lets a fault plan perturb individual transfers. Perturb is
// consulted once per non-loopback transfer and returns how many extra
// retransmissions the transfer pays (each one full serialization pass
// through the sender's NIC) and how much extra switch delay it suffers.
// Implementations live outside this package (internal/faults) so netsim
// carries no fault-model dependency; a nil LinkFaults leaves Transfer's
// code path exactly as it was.
type LinkFaults interface {
	Perturb(size int64) (retransmits int, delay sim.Time)
}

// Fabric is a switched network connecting NICs.
type Fabric struct {
	eng       *sim.Engine
	cfg       Config
	backplane *sim.Resource // nil when BackplaneRate is 0
	faults    LinkFaults    // nil = healthy network

	// Observability handles; all nil-safe when the engine is unobserved.
	o           *obs.Observer
	transfers   *obs.Counter
	bytes       *obs.Counter
	transferNS  *obs.Histogram
	retransmits *obs.Counter
	faultDelay  *obs.Counter // accumulated injected delay, ns
}

// NewFabric constructs a fabric on the engine.
func NewFabric(e *sim.Engine, cfg Config) *Fabric {
	f := &Fabric{eng: e, cfg: cfg.withDefaults()}
	if f.cfg.BackplaneRate > 0 {
		f.backplane = e.NewResource("switch.backplane", 1)
	}
	f.o = obs.Get(e)
	reg := f.o.Registry()
	f.transfers = reg.Counter("net/fabric/transfers")
	f.bytes = reg.Counter("net/fabric/bytes")
	f.transferNS = reg.Histogram("net/fabric/transfer_ns")
	f.retransmits = reg.Counter("net/fabric/retransmits")
	f.faultDelay = reg.Counter("net/fabric/fault_delay_ns")
	if f.backplane != nil && reg != nil {
		bp := f.backplane
		reg.Probe("net/backplane/utilization", func() float64 { return bp.Utilization(e.Now()) })
	}
	return f
}

// SetFaults installs (or, with nil, removes) the fabric's link-fault
// model. Call before the simulation starts: changing it mid-run would
// make results depend on installation order.
func (f *Fabric) SetFaults(lf LinkFaults) { f.faults = lf }

// NIC is one node's network interface: independent transmit and receive
// resources, each serializing at line rate.
type NIC struct {
	fabric *Fabric
	name   string
	tx     *sim.Resource
	rx     *sim.Resource
}

// NewNIC attaches a new NIC to the fabric.
func (f *Fabric) NewNIC(name string) *NIC {
	n := &NIC{
		fabric: f,
		name:   name,
		tx:     f.eng.NewResource(name+".tx", 1),
		rx:     f.eng.NewResource(name+".rx", 1),
	}
	if reg := f.o.Registry(); reg != nil {
		e := f.eng
		tx, rx := n.tx, n.rx
		reg.Probe("net/"+name+"/tx_util", func() float64 { return tx.Utilization(e.Now()) })
		reg.Probe("net/"+name+"/rx_util", func() float64 { return rx.Utilization(e.Now()) })
	}
	return n
}

// serialization returns the time to clock size bytes through one NIC side,
// including per-frame overhead.
func (f *Fabric) serialization(size int64) sim.Time {
	frames := (size + f.cfg.MTU - 1) / f.cfg.MTU
	if frames < 1 {
		frames = 1
	}
	return sim.TransferTime(size, f.cfg.Bandwidth) + sim.Time(frames)*f.cfg.FrameOverhead
}

// Transfer moves size bytes from NIC src to NIC dst, blocking the calling
// process until the last byte has been received. The model is
// store-and-forward through the switch: the sender's tx side serializes
// the message, the switch adds latency, and the receiver's rx side clocks
// it in; both NIC sides are contended resources.
func (f *Fabric) Transfer(p *sim.Proc, src, dst *NIC, size int64) {
	if size <= 0 {
		return
	}
	if src == dst {
		// Loopback: no NIC involvement, just a memory-speed hop.
		p.Sleep(f.cfg.Latency / 10)
		return
	}
	var sp obs.Span
	if f.o.Tracing() {
		sp = f.o.Begin(p, "net", src.name+"->"+dst.name, map[string]any{"bytes": size})
	} else if f.o.Spanning() {
		sp = f.o.Begin(p, "net", "transfer", nil)
	}
	start := f.eng.Now()
	ser := f.serialization(size)

	// A dropped transfer retransmits: the sender serializes the whole
	// message again while holding its tx side; an injected delay is paid
	// in the switch alongside the propagation latency.
	txSer, extraDelay := ser, sim.Time(0)
	if f.faults != nil {
		rt, d := f.faults.Perturb(size)
		if rt > 0 {
			txSer += sim.Time(rt) * ser
			f.retransmits.Add(int64(rt))
		}
		if d > 0 {
			extraDelay = d
			f.faultDelay.Add(int64(d))
		}
	}

	src.tx.Acquire(p)
	p.Sleep(txSer)
	src.tx.Release()

	if f.backplane != nil {
		f.backplane.Acquire(p)
		p.Sleep(sim.TransferTime(size, f.cfg.BackplaneRate))
		f.backplane.Release()
	}
	p.Sleep(f.cfg.Latency + extraDelay)

	dst.rx.Acquire(p)
	p.Sleep(ser)
	dst.rx.Release()

	f.transfers.Add(1)
	f.bytes.Add(size)
	f.transferNS.Observe(int64(f.eng.Now() - start))
	sp.End()
}
