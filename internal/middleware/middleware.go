// Package middleware simulates the I/O layers the application talks to —
// a POSIX interface and an MPI-IO interface with ROMIO-style data
// sieving, plus an optional readahead prefetcher. This is the layer where
// the BPS paper captures its trace records (§III.B step 1): every
// application access is recorded with the *application-required* size,
// regardless of how much data the layers below actually move.
//
// Since the layer-pipeline refactor, the middleware speaks ioreq: a
// Target is the head of an ioreq.Layer pipeline plus the file identity
// requests carry, and each application call issues one ioreq.Request
// whose ID threads every derived sub-request — and therefore every
// trace span — down to the device. POSIX and MPIIO are one process's
// interfaces, and a process's calls are sequential, so each owns one
// Request value and refills it, with a fresh ID, on every call.
package middleware

import (
	"fmt"

	"bps/internal/ioreq"
	"bps/internal/obs"
	"bps/internal/sim"
	"bps/internal/trace"
)

// record captures one completed application access at its completion
// time: the BPS trace record that post-hoc metrics consume, and — when
// the engine is observed — the live feed of the streaming windowed
// estimator (obs.Observer.AppAccess, a no-op otherwise).
func record(p *sim.Proc, col *trace.Collector, blocks int64, start sim.Time) {
	end := p.Now()
	col.Record(blocks, start, end)
	obs.Get(p.Engine()).AppAccess(blocks, start, end)
}

// Target is an open file as seen from the middleware: the head of a
// layer pipeline plus the file identity the pipeline serves. The old
// LocalTarget/PFSTarget adapter pair collapsed into this one value —
// local files, PFS clients and raw devices all enter as ioreq.Layer
// pipelines.
type Target struct {
	layer ioreq.Layer
	file  string
	size  int64
}

// NewTarget binds a layer pipeline to a file identity and size.
func NewTarget(layer ioreq.Layer, file string, size int64) Target {
	return Target{layer: layer, file: file, size: size}
}

// Size returns the file's logical size.
func (t Target) Size() int64 { return t.size }

// File returns the file identity requests carry.
func (t Target) File() string { return t.file }

// Layer returns the pipeline head.
func (t Target) Layer() ioreq.Layer { return t.layer }

// With returns a copy of the target headed by l (same file identity).
func (t Target) With(l ioreq.Layer) Target {
	t.layer = l
	return t
}

// Wrap returns a copy of the target with mws chained in front; nil
// entries are skipped, so optional layers compose without branching.
func (t Target) Wrap(mws ...ioreq.Middleware) Target {
	t.layer = ioreq.Chain(t.layer, mws...)
	return t
}

// NewRequest allocates a request against this target's file with a
// fresh engine-unique ID.
func (t Target) NewRequest(p *sim.Proc, op ioreq.Op, off, size int64) *ioreq.Request {
	return ioreq.New(p, op, off, size, t.file)
}

// fill overwrites *req with a request against this target's file, a
// fresh engine-unique ID and the issuing process's pid, and returns req.
// It is NewRequest for an interface that owns its request value.
func (t Target) fill(req *ioreq.Request, p *sim.Proc, op ioreq.Op, off, size, pid int64) *ioreq.Request {
	*req = ioreq.Request{Op: op, Off: off, Size: size, PID: pid, ID: p.NextRequestID(), File: t.file, Stripe: -1}
	return req
}

// Serve runs one request down the pipeline with the request installed
// as the proc's context, so every span opened below carries its ID.
func (t Target) Serve(p *sim.Proc, req *ioreq.Request) error {
	prev := p.Ctx()
	p.SetCtx(req)
	err := t.layer.Serve(p, req)
	p.SetCtx(prev)
	return err
}

// ReadAt serves one freshly allocated read request — the convenience
// path for callers that do not record application traces (collective
// aggregators, tests).
func (t Target) ReadAt(p *sim.Proc, off, size int64) error {
	return t.Serve(p, t.NewRequest(p, ioreq.OpRead, off, size))
}

// WriteAt serves one freshly allocated write request.
func (t Target) WriteAt(p *sim.Proc, off, size int64) error {
	return t.Serve(p, t.NewRequest(p, ioreq.OpWrite, off, size))
}

// POSIX is the plain interface: one application call maps to one
// file-system access and one trace record. A POSIX belongs to one
// process (or one live worker) and must not be called concurrently:
// it reuses one request value across calls.
type POSIX struct {
	target Target
	col    *trace.Collector
	req    ioreq.Request
}

// NewPOSIX wraps a target with trace capture for one process.
func NewPOSIX(target Target, col *trace.Collector) *POSIX {
	return &POSIX{target: target, col: col}
}

// Read performs and records one application read.
func (io *POSIX) Read(p *sim.Proc, off, size int64) error {
	return io.access(p, ioreq.OpRead, off, size)
}

// Write performs and records one application write.
func (io *POSIX) Write(p *sim.Proc, off, size int64) error {
	return io.access(p, ioreq.OpWrite, off, size)
}

func (io *POSIX) access(p *sim.Proc, op ioreq.Op, off, size int64) error {
	start := p.Now()
	req := io.target.fill(&io.req, p, op, off, size, io.col.PID())
	err := io.target.Serve(p, req)
	record(p, io.col, trace.BlocksOf(size), start)
	return err
}

// Region is one piece of a noncontiguous MPI-IO access.
type Region struct {
	Off  int64
	Size int64
}

// End returns the first offset past the region.
func (r Region) End() int64 { return r.Off + r.Size }

// Regions builds count regions of the given size separated by spacing
// bytes of hole, starting at base — HPIO's access-pattern parameters.
func Regions(base int64, count int, size, spacing int64) []Region {
	out := make([]Region, count)
	off := base
	for i := range out {
		out[i] = Region{Off: off, Size: size}
		off += size + spacing
	}
	return out
}

// MPIIOConfig parameterizes the MPI-IO layer.
type MPIIOConfig struct {
	// DataSieving enables ROMIO-style data sieving for noncontiguous
	// reads: instead of one small access per region, the layer reads the
	// covering extent — holes included — through a sieve buffer.
	DataSieving bool

	// SieveBufSize is the sieve buffer size (ROMIO default 4 MiB).
	SieveBufSize int64
}

func (c MPIIOConfig) withDefaults() MPIIOConfig {
	if c.SieveBufSize <= 0 {
		c.SieveBufSize = 4 << 20
	}
	return c
}

// MPIIO is the MPI-IO interface for one process. A noncontiguous call is
// recorded as a single application access whose size is the sum of the
// region sizes — the data the application required — even though with
// sieving the layers below move the whole covering extent. Every piece
// the call decomposes into shares one request ID. Like POSIX, an MPIIO
// belongs to one process and reuses its request values across calls.
type MPIIO struct {
	target Target
	col    *trace.Collector
	cfg    MPIIOConfig
	req    ioreq.Request // the call's request
	piece  ioreq.Request // the one piece in flight below it
}

// NewMPIIO wraps a target with MPI-IO semantics and trace capture.
func NewMPIIO(target Target, col *trace.Collector, cfg MPIIOConfig) *MPIIO {
	return &MPIIO{target: target, col: col, cfg: cfg.withDefaults()}
}

// Read performs a contiguous MPI-IO read (degenerate single region).
func (m *MPIIO) Read(p *sim.Proc, off, size int64) error {
	regions := [1]Region{{Off: off, Size: size}}
	return m.ReadRegions(p, regions[:])
}

// Write performs a contiguous MPI-IO write.
func (m *MPIIO) Write(p *sim.Proc, off, size int64) error {
	if size <= 0 || off < 0 {
		return fmt.Errorf("middleware: write [%d,%d) invalid", off, off+size)
	}
	start := p.Now()
	req := m.target.fill(&m.req, p, ioreq.OpWrite, off, size, m.col.PID())
	err := m.target.Serve(p, req)
	record(p, m.col, trace.BlocksOf(size), start)
	return err
}

// ReadRegions performs one noncontiguous read call over the given
// regions, which must be sorted by offset and non-overlapping.
func (m *MPIIO) ReadRegions(p *sim.Proc, regions []Region) error {
	required, err := validateRegions(regions)
	if err != nil {
		return err
	}
	start := p.Now()
	// One logical call, one request identity: every sieve piece or
	// per-region access below is a copy of req with its own range.
	req := m.target.fill(&m.req, p, ioreq.OpRead, regions[0].Off, required, m.col.PID())
	if m.cfg.DataSieving && len(regions) > 1 {
		err = m.sieveRead(p, req, regions)
	} else {
		err = m.directRead(p, req, regions)
	}
	record(p, m.col, trace.BlocksOf(required), start)
	return err
}

// directRead issues one underlying access per region.
func (m *MPIIO) directRead(p *sim.Proc, req *ioreq.Request, regions []Region) error {
	for _, r := range regions {
		if err := m.target.Serve(p, m.pieceOf(req, r.Off, r.Size)); err != nil {
			return err
		}
	}
	return nil
}

// sieveRead reads the covering extent [first.Off, last.End) in sieve-
// buffer-sized pieces; the holes between regions are moved through the
// I/O system although the application never asked for them.
func (m *MPIIO) sieveRead(p *sim.Proc, req *ioreq.Request, regions []Region) error {
	lo := regions[0].Off
	hi := regions[len(regions)-1].End()
	for off := lo; off < hi; off += m.cfg.SieveBufSize {
		n := m.cfg.SieveBufSize
		if off+n > hi {
			n = hi - off
		}
		if err := m.target.Serve(p, m.pieceOf(req, off, n)); err != nil {
			return err
		}
	}
	return nil
}

// pieceOf refills m's piece request as req's child covering
// [off, off+size): the value form of req.Child, served and done with
// before the next piece is cut.
func (m *MPIIO) pieceOf(req *ioreq.Request, off, size int64) *ioreq.Request {
	m.piece = *req
	m.piece.Off, m.piece.Size = off, size
	return &m.piece
}

// validateRegions checks ordering/overlap and returns the required bytes.
func validateRegions(regions []Region) (int64, error) {
	if len(regions) == 0 {
		return 0, fmt.Errorf("middleware: empty region list")
	}
	var required int64
	prevEnd := int64(-1)
	for i, r := range regions {
		if r.Size <= 0 || r.Off < 0 {
			return 0, fmt.Errorf("middleware: region %d [%d,%d) invalid", i, r.Off, r.End())
		}
		if r.Off < prevEnd {
			return 0, fmt.Errorf("middleware: region %d overlaps or is unsorted", i)
		}
		prevEnd = r.End()
		required += r.Size
	}
	return required, nil
}
