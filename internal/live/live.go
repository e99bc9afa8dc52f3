// Package live is the measurement driver for real backends: it replays
// a workload.Access stream from N concurrent goroutines — one per
// recorded process, the same grouping and pacing contract as
// workload.ReplayIO — against a backend.FS (a real directory tree or
// the in-memory filesystem), through the exact middleware chain and
// metric stack the simulator uses. The output Report carries the same
// Metrics/Records/Attribution shape a simulated run produces, so every
// downstream consumer (report writers, figures, the serve endpoints)
// works on live data unchanged.
//
// Two timelines are supported. Wall mode shares one wall clock across
// workers: timestamps are real elapsed nanoseconds, think-time pacing
// sleeps for real, and the numbers measure the actual I/O system under
// the directory. Virtual mode gives each worker its own deterministic
// clock lane advanced by a CostModel per operation: timestamps become a
// pure function of the workload — independent of goroutine scheduling —
// which is what lets the pinned livemem figure be byte-identical on
// every run.
//
// Fault injection is deliberately not wired in: faults.WrapDevice models
// simulated hardware, and injecting artificial errors into a real
// filesystem measurement would corrupt exactly the numbers the run
// exists to collect.
package live

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bps/internal/backend"
	"bps/internal/clock"
	"bps/internal/core"
	"bps/internal/ioreq"
	"bps/internal/middleware"
	"bps/internal/obs"
	"bps/internal/obs/attrib"
	"bps/internal/sim"
	"bps/internal/trace"
	"bps/internal/workload"
)

// Mode selects the timeline live workers run against.
type Mode int

const (
	// Virtual gives each worker a deterministic clock lane advanced by
	// the cost model — reproducible runs, no real sleeping.
	Virtual Mode = iota
	// Wall shares one wall clock across workers — real measurements.
	Wall
)

func (m Mode) String() string {
	if m == Wall {
		return "wall"
	}
	return "virtual"
}

// Config parameterizes one live run.
type Config struct {
	// FS is the backend under measurement. Required.
	FS backend.FS

	// Mode selects wall-clock or virtual timing (default Virtual).
	Mode Mode

	// Cost is the virtual-mode service-time model; ignored in wall
	// mode. A zero model produces zero-width accesses, which still
	// yields valid (if degenerate) windows — set at least PerOp.
	Cost clock.CostModel

	// WindowEvery sizes the streaming window estimator (default 10 ms
	// via core.NewWindowEstimator).
	WindowEvery sim.Time

	// Seed derives the per-worker RNG streams.
	Seed int64

	// Publish, when non-nil, receives periodic snapshots (every
	// PublishEvery of real time, default 100 ms) and one final snapshot
	// after the run. Source is method-identical to serve.Source, so
	// serve.Publisher.Publish plugs in directly (the indirection keeps
	// this package free of the HTTP layer). Calls are serialized and the
	// source is safe to read while workers run.
	Publish      func(now sim.Time, src Source)
	PublishEvery time.Duration

	// Label names the run in errors and reports.
	Label string
}

// Report is the result of a live run: the same measurement surfaces a
// simulated RunReport carries, computed from real timestamps.
type Report struct {
	// Backend names the FS measured ("mem", "os").
	Backend string
	// Mode is the timeline the run used.
	Mode Mode
	// Metrics are the paper's headline numbers over the whole run.
	Metrics core.Metrics
	// Records are the application trace records (sorted by start).
	Records []trace.Record
	// Errors counts failed accesses.
	Errors int
	// Attribution carries the windowed BPS/IOPS/BW/ARPT series. Layer
	// blame/stacks are absent: live runs have no span instrumentation.
	Attribution *attrib.Report
	// Registry holds the run's counters (ioreq/live/*).
	Registry *obs.Registry
}

// SlotName maps a workload file slot to its backend path — shared with
// iogen -layout so generated directory trees line up with replays.
func SlotName(slot int) string { return fmt.Sprintf("slot%04d.dat", slot) }

// Source is what the Publish callback snapshots: the streaming windows,
// their cadence, and the run's metric registry. It mirrors serve.Source
// method for method, so the driver can feed a serve.Publisher without
// this package importing the HTTP layer.
type Source interface {
	AppendLiveWindows(dst []core.Window) []core.Window
	WindowEvery() sim.Time
	Registry() *obs.Registry
}

// driver is the shared state of one run; it implements Source (and by
// extension serve.Source) so a publisher can snapshot it while workers
// are in flight.
type driver struct {
	reg *obs.Registry

	mu  sync.Mutex
	est *core.WindowEstimator
}

// AppendLiveWindows implements serve.Source.
func (d *driver) AppendLiveWindows(dst []core.Window) []core.Window {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.est.AppendWindows(dst)
}

// WindowEvery implements serve.Source.
func (d *driver) WindowEvery() sim.Time { return d.est.Every() }

// Registry implements serve.Source.
func (d *driver) Registry() *obs.Registry { return d.reg }

// add feeds one completed access to the window estimator.
func (d *driver) add(blocks int64, start, end sim.Time) {
	d.mu.Lock()
	d.est.Add(blocks, start, end)
	d.mu.Unlock()
}

// openSlots creates (or reuses) and opens every slot file the workload
// touches, growing each to its required extent. On error every file
// opened so far is closed; on success the caller owns the files.
func openSlots(fsys backend.FS, accs []workload.Access) ([]backend.File, []int64, error) {
	w := workload.ReplayIO{Accesses: accs}
	extents := w.SlotExtents()
	files := make([]backend.File, len(extents))
	fail := func(slot int, err error) ([]backend.File, []int64, error) {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
		return nil, nil, fmt.Errorf("slot %d: %w", slot, err)
	}
	for slot, ext := range extents {
		f, err := fsys.OpenFile(SlotName(slot), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return fail(slot, err)
		}
		files[slot] = f
		fi, err := f.Stat()
		if err != nil {
			return fail(slot, err)
		}
		if fi.Size() < ext {
			if err := f.Truncate(ext); err != nil {
				return fail(slot, err)
			}
		}
	}
	return files, extents, nil
}

// Layout materializes the slot files a workload needs under fsys — the
// directory-tree half of a live run, split out so iogen -layout can
// prepare a real dataset ahead of time. Existing files are kept and
// grown only if too small. It returns the per-slot extents in bytes.
func Layout(fsys backend.FS, accs []workload.Access) ([]int64, error) {
	if len(accs) == 0 {
		return nil, fmt.Errorf("live layout: no accesses")
	}
	files, extents, err := openSlots(fsys, accs)
	if err != nil {
		return nil, fmt.Errorf("live layout: %w", err)
	}
	for slot, f := range files {
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("live layout: slot %d: %w", slot, err)
		}
	}
	return extents, nil
}

// workerSeed derives a distinct RNG seed per worker (splitmix-style
// increment, same for every run with the same base seed).
func workerSeed(base int64, i int) int64 {
	return base + int64(i+1)*-0x61c8864680b583eb
}

// Run replays accs against cfg.FS and computes the run's metrics.
func Run(cfg Config, accs []workload.Access) (Report, error) {
	if cfg.FS == nil {
		return Report{}, fmt.Errorf("live %q: no backend FS", cfg.Label)
	}
	if len(accs) == 0 {
		return Report{}, fmt.Errorf("live %q: no accesses", cfg.Label)
	}

	// Group per PID and order by recorded start, exactly as ReplayIO.
	perPID := make(map[int64][]workload.Access)
	var pids []int64
	for _, a := range accs {
		if a.Size <= 0 {
			return Report{}, fmt.Errorf("live %q: access with size %d", cfg.Label, a.Size)
		}
		if a.Off < 0 || a.Slot < 0 {
			return Report{}, fmt.Errorf("live %q: access with offset %d slot %d", cfg.Label, a.Off, a.Slot)
		}
		if _, ok := perPID[a.PID]; !ok {
			pids = append(pids, a.PID)
		}
		perPID[a.PID] = append(perPID[a.PID], a)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		s := perPID[pid]
		sort.SliceStable(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	}
	base := accs[0].Start
	for _, a := range accs {
		if a.Start < base {
			base = a.Start
		}
	}

	// Lay out the slot files: every access range must be backed by real
	// bytes, or reads would come up short. Extension is sparse (memfs
	// zero-fills, osfs relies on the host FS).
	files, extents, err := openSlots(cfg.FS, accs)
	if err != nil {
		return Report{}, fmt.Errorf("live %q: %w", cfg.Label, err)
	}
	closeAll := func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}
	defer closeAll()

	// The dormant engine: never Run, it exists so the shared middleware
	// finds a real observer (atomic registry counters) through
	// obs.Get(p.Engine()). With zero Options the trace middleware is
	// inert (Spanning false) and AppAccess is a no-op, so nothing
	// engine-serialized is touched from concurrent workers.
	eng := sim.NewEngine(cfg.Seed)
	o := obs.Attach(eng, obs.Options{})
	exec := sim.NewLiveExec(eng)

	d := &driver{reg: o.Registry(), est: core.NewWindowEstimator(cfg.WindowEvery)}

	var wall *clockWall
	if cfg.Mode == Wall {
		wall = newClockWall()
		o.SetClock(wall.w)
	}

	// Shared per-slot targets: the backend layer plus the middleware
	// chain every worker serves through. Outermost to innermost: trace
	// (inert), stats, [cost — virtual only], file. Each worker issues
	// through its own middleware.POSIX, which owns the request it
	// refills per access, so workers share no request state.
	targets := make([]middleware.Target, len(files))
	for slot, f := range files {
		mws := []ioreq.Middleware{
			ioreq.Trace(eng, "live", cfg.FS.Name()),
			ioreq.Stats(eng, "ioreq/live"),
		}
		if cfg.Mode == Virtual {
			mws = append(mws, costMW(cfg.Cost))
		}
		targets[slot] = middleware.NewTarget(backend.FileLayer(f), SlotName(slot), extents[slot]).Wrap(mws...)
	}

	// Optional publisher ticker: a real-time goroutine snapshotting the
	// driver while workers run. Serialized by construction (one
	// goroutine), reading only thread-safe state.
	stopPub := func(now sim.Time) {}
	if cfg.Publish != nil {
		every := cfg.PublishEvery
		if every <= 0 {
			every = 100 * time.Millisecond
		}
		done := make(chan struct{})
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					var now sim.Time
					if wall != nil {
						now = wall.w.Now()
					} else {
						now = d.maxWindowEnd()
					}
					cfg.Publish(now, d)
				}
			}
		}()
		stopPub = func(now sim.Time) {
			close(done)
			<-finished
			cfg.Publish(now, d)
		}
	}

	// One goroutine per recorded process, pacing by recorded think time
	// on its own clock.
	cols := make([]*trace.Collector, len(pids))
	lanes := make([]*clock.VirtualLane, len(pids))
	var errs atomic.Int64
	var wg sync.WaitGroup
	for i, pid := range pids {
		col := trace.NewCollector(pid)
		cols[i] = col
		var lc sim.LiveClock
		if cfg.Mode == Wall {
			lc = wall.w
		} else {
			lanes[i] = clock.NewVirtualLane(0)
			lc = lanes[i]
		}
		p := exec.NewProc(fmt.Sprintf("live.pid%d", pid), lc, workerSeed(cfg.Seed, i))
		myAccs := perPID[pid]
		wg.Add(1)
		go func() {
			defer wg.Done()
			ios := make(map[int]*middleware.POSIX)
			start := p.Now()
			for _, a := range myAccs {
				io, ok := ios[a.Slot]
				if !ok {
					io = middleware.NewPOSIX(targets[a.Slot], col)
					ios[a.Slot] = io
				}
				issueAt := start + (a.Start - base)
				if now := p.Now(); now < issueAt {
					p.Sleep(issueAt - now)
				}
				var err error
				if a.Write {
					err = io.Write(p, a.Off, a.Size)
				} else {
					err = io.Read(p, a.Off, a.Size)
				}
				if err != nil {
					errs.Add(1)
				}
				// The record just captured is the access's authoritative
				// interval; feed it to the shared window estimator (the
				// sim path does this inside AppAccess, which the dormant
				// observer deliberately no-ops).
				recs := col.Records()
				r := recs[len(recs)-1]
				d.add(r.Blocks, r.Start, r.End)
			}
		}()
	}
	wg.Wait()

	// T: wall time elapsed, or the furthest virtual lane cursor.
	var execTime sim.Time
	if cfg.Mode == Wall {
		execTime = wall.w.Now()
	} else {
		for _, l := range lanes {
			if t := l.Now(); t > execTime {
				execTime = t
			}
		}
	}
	stopPub(execTime)

	g := trace.Gather(cols...)
	g.SortByStart()
	rep := Report{
		Backend: cfg.FS.Name(),
		Mode:    cfg.Mode,
		Metrics: core.Compute(g, cfg.FS.Moved(), execTime),
		Records: g.Records(),
		Errors:  int(errs.Load()),
		Attribution: &attrib.Report{
			Total:       execTime,
			Windows:     d.est.Windows(),
			WindowEvery: d.est.Every(),
		},
		Registry: d.reg,
	}
	return rep, nil
}

// maxWindowEnd approximates "now" for virtual-mode publishing: the end
// of the latest window the estimator has seen.
func (d *driver) maxWindowEnd() sim.Time {
	wins := d.AppendLiveWindows(nil)
	if len(wins) == 0 {
		return 0
	}
	return wins[len(wins)-1].End
}

// clockWall wraps the shared wall clock so the driver can hold one
// origin for pacing, publishing, and the final T.
type clockWall struct{ w *clock.Wall }

func newClockWall() *clockWall { return &clockWall{w: clock.NewWall()} }

// costMW charges the virtual cost model for every request reaching the
// backend — the deterministic stand-in for real device service time.
func costMW(m clock.CostModel) ioreq.Middleware {
	return func(next ioreq.Layer) ioreq.Layer {
		return ioreq.Func(func(p *sim.Proc, req *ioreq.Request) error {
			p.Sleep(m.Cost(req.Size))
			return next.Serve(p, req)
		})
	}
}
