package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bps/internal/device"
	"bps/internal/ioreq"
	"bps/internal/sim"
)

// layer names a span's layer: one public seam of the simulated stack.
type layer uint8

const (
	lMiddleware layer = iota // workload and middleware code above the Target seam
	lCache                   // ioreq.Cache middleware
	lPFS                     // pfs client, netsim, servers and server-side fsim
	lFsim                    // fsim.File.Layer on local file systems
	lDevice                  // device.Device
	nLayers
)

var layerNames = [nLayers]string{"middleware", "ioreq.cache", "pfs", "fsim", "device"}

// span is one recorded layer interval: wall nanoseconds since the
// recorder's base, the enclosing span's index (-1 for a proc's root) and
// the request ID in flight (0 when none).
type span struct {
	layer      layer
	proc       int32
	parent     int32
	start, end int64
	req        uint64
}

// procState is one simulation process's stack of open spans.
type procState struct {
	id    int32
	stack []int32
}

// recorder is the traced pass's instrument: a sim.Tracer that cuts wall
// time at every dispatched event, plus span wrappers around the stack's
// seams that cut it at every layer boundary.
//
// A simulated engine runs one proc or its dispatch loop at a time, so
// the wall time between two consecutive cuts (a slice) belongs to
// exactly one of them. A slice that ends at a span boundary was run by
// the proc crossing it, and a slice that starts at one was run by that
// proc until it parked; both are charged to the innermost open span of
// that proc. A slice between two dispatches with no boundary inside is
// the dispatch loop, an event callback, or a proc waking and parking
// again inside one layer; it is charged to the engine (unattributed).
// Every nanosecond of traced wall time is charged exactly once.
type recorder struct {
	base  time.Time
	first int64 // when the traced interval began
	last  int64
	cur   *procState // who runs the current slice; nil = the engine

	self         [nLayers]int64
	calls        [nLayers]int64
	unattributed int64

	spans []span
	procs map[*sim.Proc]*procState
	nproc int32

	targetCalls, targetBytes int64 // requests and bytes seen at the Target seam
}

func newRecorder() *recorder {
	r := &recorder{procs: make(map[*sim.Proc]*procState)}
	r.base = time.Now()
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// charge ends the current slice and charges it to ps's innermost span,
// or to the engine when ps is nil.
func (r *recorder) charge(ps *procState) int64 {
	t := r.now()
	d := t - r.last
	r.last = t
	if ps == nil || len(ps.stack) == 0 {
		r.unattributed += d
	} else {
		r.self[r.spans[ps.stack[len(ps.stack)-1]].layer] += d
	}
	return t
}

// begin starts the traced interval: the first slice starts here.
func (r *recorder) begin() {
	r.first = r.now()
	r.last = r.first
}

// finish ends the traced interval and returns its wall time.
func (r *recorder) finish() time.Duration {
	r.charge(r.cur)
	r.cur = nil
	return time.Duration(r.last - r.first)
}

func (r *recorder) push(ps *procState, l layer, req uint64, t int64) {
	parent := int32(-1)
	if len(ps.stack) > 0 {
		parent = ps.stack[len(ps.stack)-1]
	}
	r.spans = append(r.spans, span{layer: l, proc: ps.id, parent: parent, start: t, req: req})
	ps.stack = append(ps.stack, int32(len(r.spans)-1))
	r.calls[l]++
}

func (r *recorder) pop(ps *procState, t int64) {
	i := ps.stack[len(ps.stack)-1]
	r.spans[i].end = t
	ps.stack = ps.stack[:len(ps.stack)-1]
}

// enter opens a span of layer l on p; exit closes p's innermost span.
func (r *recorder) enter(p *sim.Proc, l layer, req uint64) {
	ps := r.procs[p]
	t := r.charge(ps)
	r.push(ps, l, req, t)
	r.cur = ps
}

func (r *recorder) exit(p *sim.Proc) {
	ps := r.procs[p]
	r.pop(ps, r.charge(ps))
	r.cur = ps
}

// EventDispatched implements sim.Tracer.
func (r *recorder) EventDispatched(sim.Time, uint64) {
	r.charge(r.cur)
	r.cur = nil
}

// ProcStarted implements sim.Tracer: the proc's root span opens with
// the layer its name places it in, and the proc runs next.
func (r *recorder) ProcStarted(p *sim.Proc) {
	t := r.charge(r.cur)
	ps := &procState{id: r.nproc}
	r.nproc++
	r.procs[p] = ps
	r.push(ps, rootLayer(p.Name()), 0, t)
	r.calls[rootLayer(p.Name())]-- // a root span is not a call into its layer
	r.cur = ps
}

// ProcEnded implements sim.Tracer.
func (r *recorder) ProcEnded(p *sim.Proc) {
	ps := r.procs[p]
	t := r.charge(ps)
	for len(ps.stack) > 0 {
		r.pop(ps, t)
	}
	delete(r.procs, p)
	r.cur = nil
}

// ResourceQueued implements sim.Tracer.
func (r *recorder) ResourceQueued(*sim.Resource, *sim.Proc, int) {}

// ResourceAcquired implements sim.Tracer.
func (r *recorder) ResourceAcquired(*sim.Resource, int, sim.Time) {}

// ResourceReleased implements sim.Tracer.
func (r *recorder) ResourceReleased(*sim.Resource, int) {}

// rootLayer places a proc's own code by its name: pfs server workers,
// the metadata server and per-RPC client sub-procs run pfs code, a
// write-back flusher runs fsim code, and workload procs and collective
// aggregators run workload and middleware code.
func rootLayer(name string) layer {
	switch {
	case name == "mds.worker", strings.Contains(name, ".worker"), strings.Contains(name, ".rpc"):
		return lPFS
	case strings.HasSuffix(name, ".flusher"):
		return lFsim
	default:
		return lMiddleware
	}
}

// wrap returns next with a span of layer l around every request.
func (r *recorder) wrap(l layer, next ioreq.Layer) ioreq.Layer {
	return ioreq.Func(func(p *sim.Proc, req *ioreq.Request) error {
		r.enter(p, l, req.ID)
		err := next.Serve(p, req)
		r.exit(p)
		return err
	})
}

// middleware returns an ioreq.Middleware recording a span of layer l.
func (r *recorder) middleware(l layer) ioreq.Middleware {
	return func(next ioreq.Layer) ioreq.Layer { return r.wrap(l, next) }
}

// countTarget counts the requests and bytes entering the Target seam.
// It records no span: time above the seam is the proc's root span.
func (r *recorder) countTarget(next ioreq.Layer) ioreq.Layer {
	return ioreq.Func(func(p *sim.Proc, req *ioreq.Request) error {
		r.targetCalls++
		r.targetBytes += req.Size
		return next.Serve(p, req)
	})
}

// tracedDevice records a device span around every access. The request
// ID comes from the proc's context, where the stack installs the access
// it is serving.
type tracedDevice struct {
	device.Device
	r *recorder
}

func (d tracedDevice) Access(p *sim.Proc, req device.Request) error {
	var id uint64
	if c, ok := p.Ctx().(interface{ TraceID() uint64 }); ok {
		id = c.TraceID()
	}
	d.r.enter(p, lDevice, id)
	err := d.Device.Access(p, req)
	d.r.exit(p)
	return err
}

// writeSpans dumps the recorded spans as CSV, one line per span.
func (r *recorder) writeSpans(path, point string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range r.spans {
		fmt.Fprintf(w, "%s,%d,%d,%s,%d,%d,%d,%d\n", point, i, s.proc, layerNames[s.layer], s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTest checks the slice-charging arithmetic on a synthetic engine:
// two procs whose root, outer (pfs) and inner (device) layers burn
// known wall time between sleeps. Span self-times plus the engine's
// share must sum to the traced wall time exactly, and each layer must
// be charged its measured burn within selfTestTolerance. It takes about
// 0.1 s.
func selfTest() error {
	const rounds = 20
	e := sim.NewEngine(1)
	r := newRecorder()
	e.SetTracer(r)
	var burned [nLayers]time.Duration
	burn := func(l layer, d time.Duration) {
		t0 := time.Now()
		for time.Since(t0) < d {
		}
		burned[l] += time.Since(t0)
	}
	inner := ioreq.Func(func(p *sim.Proc, req *ioreq.Request) error {
		burn(lDevice, 500*time.Microsecond)
		p.Sleep(sim.Millisecond)
		burn(lDevice, 500*time.Microsecond)
		return nil
	})
	dev := r.wrap(lDevice, inner)
	outer := r.wrap(lPFS, ioreq.Func(func(p *sim.Proc, req *ioreq.Request) error {
		burn(lPFS, 300*time.Microsecond)
		err := dev.Serve(p, req)
		burn(lPFS, 300*time.Microsecond)
		return err
	}))
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("selftest.p%d", i), func(p *sim.Proc) {
			for k := 0; k < rounds; k++ {
				burn(lMiddleware, 500*time.Microsecond)
				if err := outer.Serve(p, ioreq.New(p, ioreq.OpRead, 0, 4096, "selftest")); err != nil {
					panic(err)
				}
				p.Sleep(sim.Millisecond)
			}
		})
	}
	r.begin()
	if err := e.Run(); err != nil {
		return err
	}
	wall := r.finish()
	var sum int64
	for _, s := range r.self {
		sum += s
	}
	if sum+r.unattributed != int64(wall) {
		return fmt.Errorf("self-test: charged %d ns + engine %d ns != traced wall %d ns", sum, r.unattributed, int64(wall))
	}
	for _, l := range []layer{lMiddleware, lPFS, lDevice} {
		got, want := float64(r.self[l]), float64(burned[l])
		if got < want*(1-selfTestTolerance) || got > want*(1+selfTestTolerance) {
			return fmt.Errorf("self-test: layer %s charged %.0f ns, burned %.0f ns (tolerance %.0f%%)",
				layerNames[l], got, want, 100*selfTestTolerance)
		}
	}
	if r.calls[lPFS] != 2*rounds || r.calls[lDevice] != 2*rounds {
		return fmt.Errorf("self-test: counted %d pfs and %d device calls, want %d each", r.calls[lPFS], r.calls[lDevice], 2*rounds)
	}
	return nil
}

// selfTestTolerance bounds each layer's charged time relative to the
// wall time it burned. The excess is the cuts' own clock reads and the
// goroutine handoffs around each wake, a few µs against 300–500 µs
// burns.
const selfTestTolerance = 0.15
