package faults

import (
	"fmt"

	"bps/internal/sim"
)

// ServerFaults is one PFS server's view of the plan: whether it is down
// (permanently dead or inside a fail window) and how much extra service
// delay a slow window imposes. It implements pfs.ServerFaults.
//
// Everything here is a pure function of (Config.Seed, server ID,
// simulated time) — no RNG state, no call-order sensitivity — so any
// mix of workers querying it produces identical schedules.
type ServerFaults struct {
	dead   bool
	deadAt sim.Time
	fail   Windows
	slow   Windows
	delay  sim.Time
}

// NewServerFaults builds server id's view of plan c. With the server
// layer disabled the returned value injects nothing (Down always false,
// SlowDelay always zero).
func NewServerFaults(c Config, id int) *ServerFaults {
	if !c.Server.enabled() {
		return &ServerFaults{}
	}
	sc := c.Server
	label := fmt.Sprintf("ios%d", id)
	return &ServerFaults{
		dead:   hash01(deriveSeed(c.Seed, "server-dead", label)) < clamp01(sc.DeadRate),
		deadAt: sc.DeadAt,
		fail: Windows{
			Seed:     deriveSeed(c.Seed, "server-fail", label),
			Period:   sc.Period,
			Duration: sc.Duration,
			Rate:     clamp01(sc.FailRate),
		},
		slow: Windows{
			Seed:     deriveSeed(c.Seed, "server-slow", label),
			Period:   sc.Period,
			Duration: sc.Duration,
			Rate:     clamp01(sc.SlowRate),
		},
		delay: sc.SlowDelay,
	}
}

// Down reports whether the server drops jobs at time now: permanently
// once dead, transiently inside fail windows.
func (s *ServerFaults) Down(now sim.Time) bool {
	if s.dead && now >= s.deadAt {
		return true
	}
	return s.fail.Active(now)
}

// SlowDelay returns the extra per-job service delay at time now (zero
// outside slow windows).
func (s *ServerFaults) SlowDelay(now sim.Time) sim.Time {
	if s.delay > 0 && s.slow.Active(now) {
		return s.delay
	}
	return 0
}
