// Package workload implements synthetic equivalents of the three
// benchmark tools the BPS paper drives its experiments with: IOzone-style
// sequential reads with configurable record sizes and a multi-process
// throughput mode, IOR-style segmented shared-file access with fixed
// transfer sizes, and HPIO-style noncontiguous region patterns with data
// sieving. Every workload runs against an Env (a configured simulated I/O
// system) and returns the gathered trace plus the measurements needed by
// the metrics.
package workload

import (
	"fmt"

	"bps/internal/fsim"
	"bps/internal/ioreq"
	"bps/internal/middleware"
	"bps/internal/pfs"
	"bps/internal/sim"
	"bps/internal/trace"
)

// Env is a configured I/O system under test.
type Env interface {
	// Target returns the I/O target process pid should use. Different
	// pids may share a target (shared-file workloads) or get their own.
	Target(pid int) middleware.Target

	// Moved returns the bytes actually moved at the file-system level so
	// far — the bandwidth metric's numerator.
	Moved() int64
}

// LocalEnv is one local file system with one file per process (pid i uses
// Files[i % len(Files)]).
type LocalEnv struct {
	FS    *fsim.FileSystem
	Files []*fsim.File

	// Wrap, when non-nil, is layered outermost in front of every target —
	// the hook QoS admission control uses to throttle an env's requests
	// before they enter the stack. Nil leaves the pipeline untouched.
	Wrap ioreq.Middleware
}

// Target implements Env.
func (l *LocalEnv) Target(pid int) middleware.Target {
	f := l.Files[pid%len(l.Files)]
	t := middleware.NewTarget(f.Layer(), f.Name(), f.Size())
	if l.Wrap != nil {
		t = t.Wrap(l.Wrap)
	}
	return t
}

// Moved implements Env.
func (l *LocalEnv) Moved() int64 { return l.FS.Moved() }

// ClusterEnv is a parallel file system with per-process clients; pid i
// accesses Files[i % len(Files)] through Clients[i % len(Clients)].
type ClusterEnv struct {
	Cluster *pfs.Cluster
	Clients []*pfs.Client
	Files   []*pfs.File

	// Cache, when non-nil, is a shared client-side page cache layered in
	// front of every target's pfs client (see ioreq.Cache). Nil leaves
	// the pipeline exactly as before the cache existed.
	Cache *ioreq.Cache

	// Wrap, when non-nil, is layered outermost — in front of the cache,
	// so QoS admission control sees the application's requests before
	// any hit/miss splitting. Nil leaves the pipeline untouched.
	Wrap ioreq.Middleware
}

// Target implements Env.
func (c *ClusterEnv) Target(pid int) middleware.Target {
	cl := c.Clients[pid%len(c.Clients)]
	f := c.Files[pid%len(c.Files)]
	t := middleware.NewTarget(cl.Layer(f), f.Name(), f.Size())
	if c.Cache != nil {
		t = t.Wrap(c.Cache.Middleware(f.Size()))
	}
	if c.Wrap != nil {
		t = t.Wrap(c.Wrap)
	}
	return t
}

// Moved implements Env.
func (c *ClusterEnv) Moved() int64 { return c.Cluster.Moved() }

// Result is everything measured from one workload run.
type Result struct {
	Label    string
	ExecTime sim.Time      // application execution time (all processes done)
	Trace    *trace.Global // gathered application-access records
	Moved    int64         // file-system-level bytes moved
	Errors   int           // failed application accesses
}

// Runner is a workload that can execute on an engine against an Env. The
// engine must be fresh: Run spawns the application processes and then
// drives the event loop to completion.
type Runner interface {
	Run(e *sim.Engine, env Env) (Result, error)
}

// Starter is a workload that can be started without driving the engine,
// so several applications can share one simulation — the paper's
// multi-application recording case (§III.B step 1). Start spawns the
// processes; after the caller runs the engine, Pending.Result returns
// the workload's measurements.
type Starter interface {
	Start(e *sim.Engine, env Env) (*Pending, error)
}

// Pending is a started workload awaiting engine completion.
type Pending struct {
	label      string
	env        Env
	collectors []*trace.Collector
	errs       []int
	startedAt  sim.Time
	doneAt     sim.Time // completion time of the last process so far
}

// Result assembles the workload's measurements. Call it only after the
// engine has drained. ExecTime is the span from workload start to the
// completion of its last process; Moved is the env-level total (shared
// by every workload on the env).
func (p *Pending) Result() Result {
	var nerr int
	for _, n := range p.errs {
		nerr += n
	}
	return Result{
		Label:    p.label,
		ExecTime: p.doneAt - p.startedAt,
		Trace:    trace.Gather(p.collectors...),
		Moved:    p.env.Moved(),
		Errors:   nerr,
	}
}

// track wraps a process body so the pending records the latest
// completion time.
func (p *Pending) track(body func(*sim.Proc)) func(*sim.Proc) {
	return func(proc *sim.Proc) {
		body(proc)
		if proc.Now() > p.doneAt {
			p.doneAt = proc.Now()
		}
	}
}

func newPending(e *sim.Engine, label string, env Env, procs int) *Pending {
	return &Pending{
		label:      label,
		env:        env,
		collectors: make([]*trace.Collector, procs),
		errs:       make([]int, procs),
		startedAt:  e.Now(),
		doneAt:     e.Now(),
	}
}

// SeqRead is the IOzone/IOR-style sequential read workload: each of
// Processes reads BytesPerProcess bytes in RecordSize records, starting
// at StartOffset(pid) in its target.
type SeqRead struct {
	Label           string
	Processes       int
	BytesPerProcess int64
	RecordSize      int64

	// StartOffset gives each process its starting file offset; nil means
	// every process starts at 0 (own-file mode). IOR-style segmented
	// shared-file mode passes pid*segment.
	StartOffset func(pid int) int64

	// UseMPIIO routes accesses through the MPI-IO layer instead of POSIX.
	UseMPIIO bool

	// Write performs writes instead of reads (IOzone's write/re-write
	// modes, or a checkpoint-style dump).
	Write bool

	// ComputePerOp inserts a fixed think time after each record,
	// modelling per-record application work (0 for pure I/O benchmarks).
	ComputePerOp sim.Time

	// FirstPID offsets the trace process IDs, keeping them globally
	// unique when several applications share one I/O system.
	FirstPID int64
}

// Start implements Starter.
func (w SeqRead) Start(e *sim.Engine, env Env) (*Pending, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	pend := newPending(e, w.Label, env, w.Processes)
	for pid := 0; pid < w.Processes; pid++ {
		pid := pid
		col := trace.NewCollector(w.FirstPID + int64(pid))
		col.Grow(int((w.BytesPerProcess + w.RecordSize - 1) / w.RecordSize))
		pend.collectors[pid] = col
		base := int64(0)
		if w.StartOffset != nil {
			base = w.StartOffset(pid)
		}
		target := env.Target(pid)
		e.Spawn(fmt.Sprintf("%s.p%d", w.Label, pid), pend.track(func(p *sim.Proc) {
			read := accessorFor(target, col, w.UseMPIIO, w.Write)
			for done := int64(0); done < w.BytesPerProcess; done += w.RecordSize {
				n := w.RecordSize
				if done+n > w.BytesPerProcess {
					n = w.BytesPerProcess - done
				}
				if err := read(p, base+done, n); err != nil {
					pend.errs[pid]++
				}
				if w.ComputePerOp > 0 {
					p.Sleep(w.ComputePerOp)
				}
			}
		}))
	}
	return pend, nil
}

// Run implements Runner.
func (w SeqRead) Run(e *sim.Engine, env Env) (Result, error) {
	return runToCompletion(w, e, env)
}

// runToCompletion starts a single workload, drains the engine, and
// assembles its result.
func runToCompletion(w Starter, e *sim.Engine, env Env) (Result, error) {
	pend, err := w.Start(e, env)
	if err != nil {
		return Result{}, err
	}
	if err := e.Run(); err != nil {
		return Result{}, err
	}
	return pend.Result(), nil
}

func (w SeqRead) validate() error {
	switch {
	case w.Processes < 1:
		return fmt.Errorf("workload %q: Processes %d < 1", w.Label, w.Processes)
	case w.BytesPerProcess <= 0:
		return fmt.Errorf("workload %q: BytesPerProcess %d <= 0", w.Label, w.BytesPerProcess)
	case w.RecordSize <= 0:
		return fmt.Errorf("workload %q: RecordSize %d <= 0", w.Label, w.RecordSize)
	}
	return nil
}

// accessorFor returns a read or write function through the chosen
// middleware layer.
func accessorFor(target middleware.Target, col *trace.Collector, useMPIIO, write bool) func(*sim.Proc, int64, int64) error {
	if useMPIIO {
		m := middleware.NewMPIIO(target, col, middleware.MPIIOConfig{})
		if write {
			return m.Write
		}
		return m.Read
	}
	io := middleware.NewPOSIX(target, col)
	if write {
		return io.Write
	}
	return io.Read
}

// Noncontig is the HPIO-style noncontiguous read workload: each process
// reads RegionCount regions of RegionSize bytes separated by
// RegionSpacing holes, batched RegionsPerCall regions per MPI-IO call,
// optionally with data sieving.
type Noncontig struct {
	Label          string
	Processes      int
	RegionCount    int
	RegionSize     int64
	RegionSpacing  int64
	RegionsPerCall int
	Sieving        bool
	SieveBufSize   int64

	// BaseFor gives each process the start of its region sequence; nil
	// means pid * span(RegionCount) so processes never overlap.
	BaseFor func(pid int) int64

	// FirstPID offsets the trace process IDs (see SeqRead.FirstPID).
	FirstPID int64
}

// Span returns the bytes covered by one process's region sequence,
// including holes (without the trailing hole).
func (w Noncontig) Span() int64 {
	if w.RegionCount == 0 {
		return 0
	}
	return int64(w.RegionCount)*(w.RegionSize+w.RegionSpacing) - w.RegionSpacing
}

// RequiredBytes returns the application-required bytes per process.
func (w Noncontig) RequiredBytes() int64 {
	return int64(w.RegionCount) * w.RegionSize
}

// Start implements Starter.
func (w Noncontig) Start(e *sim.Engine, env Env) (*Pending, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	perCall := w.RegionsPerCall
	if perCall <= 0 {
		perCall = 4096
	}
	pend := newPending(e, w.Label, env, w.Processes)
	for pid := 0; pid < w.Processes; pid++ {
		pid := pid
		col := trace.NewCollector(w.FirstPID + int64(pid))
		col.Grow((w.RegionCount + perCall - 1) / perCall)
		pend.collectors[pid] = col
		base := int64(pid) * (w.Span() + w.RegionSpacing)
		if w.BaseFor != nil {
			base = w.BaseFor(pid)
		}
		target := env.Target(pid)
		e.Spawn(fmt.Sprintf("%s.p%d", w.Label, pid), pend.track(func(p *sim.Proc) {
			m := middleware.NewMPIIO(target, col, middleware.MPIIOConfig{
				DataSieving:  w.Sieving,
				SieveBufSize: w.SieveBufSize,
			})
			stride := w.RegionSize + w.RegionSpacing
			for first := 0; first < w.RegionCount; first += perCall {
				n := perCall
				if first+n > w.RegionCount {
					n = w.RegionCount - first
				}
				regions := middleware.Regions(base+int64(first)*stride, n, w.RegionSize, w.RegionSpacing)
				if err := m.ReadRegions(p, regions); err != nil {
					pend.errs[pid]++
				}
			}
		}))
	}
	return pend, nil
}

// Run implements Runner.
func (w Noncontig) Run(e *sim.Engine, env Env) (Result, error) {
	return runToCompletion(w, e, env)
}

func (w Noncontig) validate() error {
	switch {
	case w.Processes < 1:
		return fmt.Errorf("workload %q: Processes %d < 1", w.Label, w.Processes)
	case w.RegionCount < 1:
		return fmt.Errorf("workload %q: RegionCount %d < 1", w.Label, w.RegionCount)
	case w.RegionSize <= 0:
		return fmt.Errorf("workload %q: RegionSize %d <= 0", w.Label, w.RegionSize)
	case w.RegionSpacing < 0:
		return fmt.Errorf("workload %q: RegionSpacing %d < 0", w.Label, w.RegionSpacing)
	}
	return nil
}
