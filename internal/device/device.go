// Package device provides simulated block storage devices: a rotating
// hard disk (HDD) with a distance-dependent seek curve and zoned transfer
// rates, a flash SSD with channel-level parallelism and read/write
// asymmetry, a RAM disk for testing, and a fault-injecting wrapper.
//
// All devices consume simulated time via the sim engine; none of them move
// real data. They exist so that the I/O-metric experiments from the BPS
// paper can run against storage whose *timing shape* matches real hardware:
// per-operation fixed costs that dominate small requests, serialized disk
// heads that create contention, and parallel channels that reward
// concurrency.
package device

import (
	"errors"
	"fmt"

	"bps/internal/sim"
)

// SectorSize is the unit the BPS paper counts blocks in (512 bytes).
const SectorSize = 512

// Request describes one device access in bytes.
type Request struct {
	Offset int64 // byte offset on the device
	Size   int64 // bytes, > 0
	Write  bool
}

// End returns the first byte offset past the request.
func (r Request) End() int64 { return r.Offset + r.Size }

// Validate reports whether the request is well-formed for a device of the
// given capacity.
func (r Request) Validate(capacity int64) error {
	switch {
	case r.Size <= 0:
		return fmt.Errorf("device: request size %d must be positive", r.Size)
	case r.Offset < 0:
		return fmt.Errorf("device: negative offset %d", r.Offset)
	case r.End() > capacity:
		return fmt.Errorf("device: request [%d,%d) exceeds capacity %d", r.Offset, r.End(), capacity)
	}
	return nil
}

// Device is a simulated block device. Access blocks the calling simulation
// process for the duration of the request's service and returns an error
// for malformed or injected-fault requests. Failed requests still consume
// service time — exactly the situation in which the BPS paper counts
// unsuccessful accesses in B (§III.A).
//
// Per-device activity (bytes moved, errors, service time) is counted in
// the engine's obs registry under device/<name>/, not by the device.
type Device interface {
	Capacity() int64
	Access(p *sim.Proc, req Request) error
}

// ErrInjectedFault is returned by the fault-injecting wrappers of the
// internal/faults package for requests selected to fail.
var ErrInjectedFault = errors.New("device: injected fault")
