package faults

import (
	"math/rand"

	"bps/internal/sim"
)

// Link applies the plan's network-layer misbehavior to fabric
// transfers. It implements netsim.LinkFaults: the fabric consults it
// once per transfer and folds the answer into its timing model (a drop
// costs one extra serialization pass through the sender's NIC, a delay
// is added to the switch latency).
//
// The RNG stream is private to the link and derived from
// (Config.Seed, "net", "link"); draws happen only inside Transfer,
// which the engine serializes, so the stream is deterministic.
type Link struct {
	cfg NetworkConfig
	rng *rand.Rand
}

// NewLink builds the plan's link-fault model, or nil when the network
// layer is disabled — a nil LinkFaults leaves the fabric's transfer
// path exactly as it was.
func NewLink(c Config) *Link {
	if !c.Network.enabled() {
		return nil
	}
	cfg := c.Network
	cfg.DropRate = clamp01(cfg.DropRate)
	cfg.DelayRate = clamp01(cfg.DelayRate)
	return &Link{
		cfg: cfg,
		rng: rand.New(rand.NewSource(deriveSeed(c.Seed, "net", "link"))),
	}
}

// Perturb implements netsim.LinkFaults: it returns how many extra
// retransmissions and how much extra switch delay a transfer of size
// bytes suffers.
func (l *Link) Perturb(size int64) (retransmits int, delay sim.Time) {
	if l.cfg.DropRate > 0 && l.rng.Float64() < l.cfg.DropRate {
		retransmits = 1
	}
	if l.cfg.DelayRate > 0 && l.rng.Float64() < l.cfg.DelayRate {
		delay = l.cfg.Delay
	}
	return retransmits, delay
}
