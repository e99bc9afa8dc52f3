// Package ioreq defines the unified request path of the simulated I/O
// stack: one Request struct describing an application-required access
// and one Layer interface that every storage layer speaks, from the
// middleware down to the device. Layers compose http.Handler-style via
// Middleware wrappers, so cross-cutting concerns — trace spans, fault
// injection, retries, stats, caching — are written once and chained in
// front of any terminal layer instead of being re-woven by hand inside
// each package.
//
// The package is timing-neutral by construction: building a Request or
// threading it through wrappers never advances simulated time. Only the
// layers that model real work (devices, network legs, caches) sleep.
package ioreq

import (
	"fmt"

	"bps/internal/sim"
)

// Op is a request operation.
type Op int

const (
	OpRead Op = iota
	OpWrite
)

func (o Op) String() string {
	if o == OpWrite {
		return "write"
	}
	return "read"
}

// ParseOp parses the wire spelling of an operation ("read"/"write",
// accepting the "r"/"w" shorthand trace formats use).
func ParseOp(s string) (Op, error) {
	switch s {
	case "read", "r", "R":
		return OpRead, nil
	case "write", "w", "W":
		return OpWrite, nil
	}
	return OpRead, fmt.Errorf("ioreq: unknown op %q (read, write)", s)
}

// Request describes one access travelling down the layer pipeline. A
// logical application call allocates one Request; layers that split it
// (striping, sieving, cache miss runs) derive sub-requests via Child,
// which keep the parent's identity so trace spans thread end to end.
type Request struct {
	Op   Op
	Off  int64
	Size int64

	// PID is the originating application process ID (the trace PID), or
	// -1 when the access is not attributable to a single application
	// process (collective aggregators, replication traffic, tests).
	PID int64

	// ID is the engine-unique request identifier. Every sub-request and
	// retry of one logical access carries the same ID; the observability
	// layer stamps it on each span opened while the request is in flight.
	ID uint64

	// File is the target file identity; Stripe is the stripe position a
	// striping layer routed a sub-request to (-1 until set).
	File   string
	Stripe int

	// Attempt counts delivery attempts (0 = first try); recovery layers
	// increment it on retry.
	Attempt int

	// Deadline, when nonzero, is the absolute simulated time after which
	// the issuer abandons the current attempt.
	Deadline sim.Time

	// Tenant is the owning tenant's identifier in multi-tenant runs, ""
	// for single-tenant workloads. The QoS admission layer stamps it at
	// the top of the pipeline; Child keeps it, so every sub-request and
	// span of a tenant's access carries the tenant identity end to end.
	Tenant string

	// Tags carries optional cross-layer annotations; nil until first use.
	Tags map[string]string
}

// IDSource allocates unique request identifiers. Both *sim.Engine and
// *sim.Proc satisfy it; issuing layers should pass the proc, so that a
// simulated proc draws from its engine's counter and a detached live
// proc from its executor's atomic counter.
type IDSource interface {
	NextRequestID() uint64
}

// New builds a request against file with a fresh unique ID.
func New(ids IDSource, op Op, off, size int64, file string) *Request {
	return &Request{
		Op:     op,
		Off:    off,
		Size:   size,
		PID:    -1,
		ID:     ids.NextRequestID(),
		File:   file,
		Stripe: -1,
	}
}

// Child returns a copy of r covering [off, off+size) that keeps the
// parent's identity (ID, PID, file, attempt, deadline, tags). Layers
// that decompose a request pass children downstream.
func (r *Request) Child(off, size int64) *Request {
	c := *r
	c.Off, c.Size = off, size
	return &c
}

// End returns the exclusive end offset of the request.
func (r *Request) End() int64 { return r.Off + r.Size }

// Validate checks the request range against a file of fileSize bytes.
func (r *Request) Validate(fileSize int64) error {
	if r.Size <= 0 {
		return fmt.Errorf("ioreq: %s size %d must be positive", r.Op, r.Size)
	}
	if r.Off < 0 || r.End() > fileSize {
		return fmt.Errorf("ioreq: %s [%d, %d) out of bounds (file size %d)",
			r.Op, r.Off, r.End(), fileSize)
	}
	return nil
}

// SetTag annotates the request, allocating the tag map on first use.
func (r *Request) SetTag(k, v string) {
	if r.Tags == nil {
		r.Tags = make(map[string]string, 1)
	}
	r.Tags[k] = v
}

// Tag returns the annotation for k ("" when absent).
func (r *Request) Tag(k string) string { return r.Tags[k] }

// TraceID is the observability hook: obs.Begin checks the calling
// proc's context (sim.Proc.Ctx) for this method and, when present, adds
// a "req" argument to every span it opens — the thread that stitches
// one logical access's spans across layers.
func (r *Request) TraceID() uint64 { return r.ID }

// TenantID is the multi-tenant observability hook, the tenant-identity
// counterpart of TraceID: obs.Begin adds a "tenant" argument to spans
// opened while a tenant-owned request is in flight. "" (single-tenant
// workloads) adds nothing, keeping existing traces byte-identical.
func (r *Request) TenantID() string { return r.Tenant }

// Layer is one stage of the I/O path. Serve runs req to completion on
// behalf of proc p, advancing simulated time as the modeled work
// requires, and returns the request's outcome.
type Layer interface {
	Serve(p *sim.Proc, req *Request) error
}

// Func adapts a function to a Layer.
type Func func(p *sim.Proc, req *Request) error

// Serve implements Layer.
func (f Func) Serve(p *sim.Proc, req *Request) error { return f(p, req) }

// Middleware wraps a Layer with a cross-cutting concern.
type Middleware func(Layer) Layer

// Chain wraps l with the given middlewares. The first middleware
// becomes the outermost layer, so Chain(l, a, b) serves a → b → l.
// Nil middlewares are skipped, so optional layers compose without
// branching at the call site.
func Chain(l Layer, mws ...Middleware) Layer {
	for i := len(mws) - 1; i >= 0; i-- {
		if mws[i] != nil {
			l = mws[i](l)
		}
	}
	return l
}
