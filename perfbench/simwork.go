package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"bps/internal/core"
	"bps/internal/experiments"
	"bps/internal/obs"
	"bps/internal/report"
	"bps/internal/sim"
	"bps/internal/stats"
	"bps/internal/trace"
)

// simWorkload is a simulated-figure workload: a pass reproduces and
// renders its figures through experiments and report, as bpsbench does.
type simWorkload struct {
	name       string
	scale      float64
	setupScale float64 // scale of the set-up warm-up pass
	observe    *obs.Options
	render     func(s *experiments.Suite, w io.Writer, figure func(id string) (experiments.Figure, error)) error
	points     func(scale float64, seed int64) []pointSpec
}

// workers is the sweep worker count, sized for a two-core host.
const workers = 2

func runPaper(cfg config) (*outcome, error) {
	return simWorkload{
		name:       "paper",
		scale:      1.0 / 64,
		setupScale: 1.0 / 1024,
		render:     renderPaper,
		points:     paperPoints,
	}.run(cfg)
}

func runObserved(cfg config) (*outcome, error) {
	return simWorkload{
		name:       "observed",
		scale:      1.0 / 16,
		setupScale: 1.0 / 256,
		// What bpsbench -attrib-out X -windows 0.01 sets.
		observe: &obs.Options{Attribution: true, WindowEvery: 10 * sim.Millisecond, SampleEvery: sim.Millisecond},
		render:  renderObserved,
		points:  observedPoints,
	}.run(cfg)
}

// renderPaper is `bpsbench -fig all`: Tables 1–2, fig4–fig12 with the
// summary and paper comparison, then ext1–ext3.
func renderPaper(_ *experiments.Suite, w io.Writer, figure func(string) (experiments.Figure, error)) error {
	report.WriteTable1(w)
	report.WriteTable2(w)
	var figs []experiments.Figure
	for _, id := range experiments.FigureIDs {
		f, err := figure(id)
		if err != nil {
			return err
		}
		figs = append(figs, f)
	}
	report.WriteSummary(w, figs)
	report.WriteComparison(w, figs)
	for _, id := range experiments.ExtensionIDs {
		if _, err := figure(id); err != nil {
			return err
		}
	}
	return nil
}

// renderObserved is the faults and clientcache figures, each followed
// by its last run's attribution report and folded stacks.
func renderObserved(s *experiments.Suite, w io.Writer, figure func(string) (experiments.Figure, error)) error {
	for _, id := range []string{experiments.FaultFigureID, experiments.ClientCacheFigureID} {
		if _, err := figure(id); err != nil {
			return err
		}
		last := s.LastObservation()
		if last == nil {
			return fmt.Errorf("%s: no observation", id)
		}
		rep := last.Obs.Attribution()
		report.WriteAttribution(w, rep)
		if err := rep.WriteFolded(w); err != nil {
			return err
		}
		if rep.ExclusiveSum() != rep.Total {
			return fmt.Errorf("%s: attribution exclusive sum %v != T %v", id, rep.ExclusiveSum(), rep.Total)
		}
	}
	return nil
}

// writeFigure renders one figure the way bpsbench does for its ID.
func writeFigure(w io.Writer, f experiments.Figure) {
	switch f.ID {
	case experiments.FaultFigureID:
		report.WriteFaultFigure(w, f)
	case experiments.ClientCacheFigureID:
		report.WriteClientCacheFigure(w, f)
	default:
		report.WriteFigure(w, f)
	}
}

// simPass is one rendered reproduction.
type simPass struct {
	out  []byte
	figs []experiments.Figure
	lats []float64 // per-figure reproduce+render wall µs
	ops  int64     // accesses simulated (memoized sweeps once)
}

func (w simWorkload) params(scale float64, seed int64) experiments.Params {
	return experiments.Params{Scale: scale, Seed: seed, Parallel: workers}
}

// pass reproduces and renders the workload's figures once on a fresh
// suite, so every pass does the same work.
func (w simWorkload) pass(scale float64, seed int64) (simPass, error) {
	s := experiments.NewSuite(w.params(scale, seed))
	s.SetObserve(w.observe)
	var buf bytes.Buffer
	var sp simPass
	figure := func(id string) (experiments.Figure, error) {
		t0 := time.Now()
		f, err := s.Figure(id)
		if err != nil {
			return f, err
		}
		writeFigure(&buf, f)
		sp.lats = append(sp.lats, float64(time.Since(t0).Nanoseconds())/1e3)
		sp.figs = append(sp.figs, f)
		if !f.IsDetail {
			for _, pt := range f.Points {
				sp.ops += pt.Metrics.Ops
			}
		}
		return f, nil
	}
	if err := w.render(s, &buf, figure); err != nil {
		return sp, err
	}
	sp.out = buf.Bytes()
	return sp, nil
}

// check applies the output checks to one pass: BPS keeps the paper's
// (positive normalized) correlation on every CC figure, and the output
// is byte-identical to the run's first pass.
func (w simWorkload) check(o *outcome, sp simPass, want [sha256.Size]byte) {
	for _, f := range sp.figs {
		if f.CC != nil && !(f.CC.CC[core.BPS] > 0) {
			o.fail(1, "%s: BPS normalized CC %+.3f is not positive", f.ID, f.CC.CC[core.BPS])
		}
	}
	if sha256.Sum256(sp.out) != want {
		o.fail(1, "%s: pass output differs from the run's first pass at the same seed", w.name)
	}
	o.attempted += int64(len(sp.figs))
}

func (w simWorkload) run(cfg config) (*outcome, error) {
	o := &outcome{}
	if err := timeSetup(o, nil, func() error {
		_, err := w.pass(w.setupScale, cfg.seed)
		return err
	}); err != nil {
		return nil, err
	}

	if cfg.trace {
		// One untraced reference pass gives the figure points the traced
		// rebuilds must reproduce, and the run-level ratios.
		runtime.GC()
		before, c0, t0 := readRuntime(), cpuTime(), time.Now()
		ref, err := w.pass(w.scale, cfg.seed)
		if err != nil {
			return nil, err
		}
		refWall, refCPU, after := time.Since(t0), cpuTime()-c0, readRuntime()
		w.check(o, ref, sha256.Sum256(ref.out))
		recordRuntime(o, before, after, refWall, ref.ops)
		o.set("experiments.cpu_per_wall", refCPU.Seconds()/refWall.Seconds())
		o.set("report.ns_per_figure", reportNsPerFigure(ref.figs))
		o.table = append(o.table, fmt.Sprintf("untraced reference pass: wall %.3f s, cpu %.3f s, %d accesses, %d figures",
			refWall.Seconds(), refCPU.Seconds(), ref.ops, len(ref.figs)))
		return o, w.traced(cfg, o, ref)
	}

	// The first measured pass is the reference every later one must
	// reproduce byte for byte.
	var want *[sha256.Size]byte
	ps, err := measure(cfg.seconds, "self", func() (pass, error) {
		c0, t0 := cpuTime(), time.Now()
		sp, err := w.pass(w.scale, cfg.seed)
		if err != nil {
			return pass{}, err
		}
		p := pass{wall: time.Since(t0), cpu: cpuTime() - c0, ops: sp.ops}.withLatencies(sp.lats)
		if want == nil {
			h := sha256.Sum256(sp.out)
			want = &h
		}
		w.check(o, sp, *want)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	ps.record(o)
	return o, nil
}

// reportNsPerFigure times the CC table and rendering of each figure
// that ran its own sweep, averaged over a few repetitions.
func reportNsPerFigure(figs []experiments.Figure) float64 {
	const reps = 5
	var n int
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, f := range figs {
			if f.IsDetail {
				continue
			}
			if f.CC != nil {
				runs := make([]core.Metrics, len(f.Points))
				for i, pt := range f.Points {
					runs[i] = pt.Metrics
				}
				stats.NewCCTable(f.ID, runs)
			}
			writeFigure(io.Discard, f)
			n++
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(max(n, 1))
}

// pointRun is one rebuilt point's execution.
type pointRun struct {
	wall      time.Duration // engine run only
	compute   time.Duration // trace.Gather plus core.Compute
	attrib    time.Duration // FinishSampling, AddAppRecord and Attribution
	metrics   core.Metrics
	events    uint64
	mdsOps    uint64
	retries   int64
	hits      uint64
	misses    uint64
	r         *recorder
	tracedAll time.Duration // recorder's traced wall
}

// runPoint builds and runs one representative point: plain, traced
// (r non-nil) or observed (observe non-nil).
func runPoint(ps pointSpec, seed int64, r *recorder, observe *obs.Options) (pointRun, error) {
	e := sim.NewEngine(experiments.DeriveSeed(seed, ps.sweep, ps.label))
	var ob *obs.Observer
	if observe != nil {
		ob = obs.Attach(e, *observe)
	}
	if r != nil {
		e.SetTracer(r)
	}
	b := &stack{e: e, r: r}
	v, w, err := ps.build(b)
	if err != nil {
		return pointRun{}, fmt.Errorf("point %s/%s: %w", ps.fig, ps.label, err)
	}
	pend, err := w.Start(e, v)
	if err != nil {
		return pointRun{}, fmt.Errorf("point %s/%s: %w", ps.fig, ps.label, err)
	}
	var out pointRun
	t0 := time.Now()
	if r != nil {
		r.begin()
	}
	err = e.Run()
	out.wall = time.Since(t0)
	if r != nil {
		out.tracedAll = r.finish()
		out.r = r
	}
	if err != nil {
		return pointRun{}, fmt.Errorf("point %s/%s: %w", ps.fig, ps.label, err)
	}
	t1 := time.Now()
	res := pend.Result()
	out.metrics = core.Compute(res.Trace, res.Moved, res.ExecTime)
	out.compute = time.Since(t1)
	out.events = e.Events()
	e.Shutdown()
	if b.cluster != nil {
		out.mdsOps = b.cluster.MetadataOps()
	}
	out.hits, out.misses = b.cache.Hits(), b.cache.Misses()
	if ob != nil {
		t2 := time.Now()
		ob.FinishSampling()
		for _, rec := range res.Trace.Records() {
			ob.AddAppRecord(rec.PID, rec.Blocks, rec.Start, rec.End)
		}
		ob.Attribution()
		out.attrib = time.Since(t2)
		out.retries = ob.Registry().Counter("pfs/client/retries").Value()
	}
	return out, nil
}

// sameRun reports whether a rebuilt run reproduced the figure point.
func sameRun(got, want core.Metrics) bool {
	return got.Ops == want.Ops && got.Blocks == want.Blocks && got.IOTime == want.IOTime
}

// findPoint returns the figure point a spec rebuilds.
func findPoint(figs []experiments.Figure, ps pointSpec) (experiments.Point, bool) {
	for _, f := range figs {
		if f.ID != ps.fig {
			continue
		}
		for _, pt := range f.Points {
			if pt.Label == ps.label {
				return pt, true
			}
		}
	}
	return experiments.Point{}, false
}

// tracedReps is how often each representative point runs in each of
// its modes; walls are medians, counts and self-times sums.
const tracedReps = 3

// traced is the per-layer pass: every representative point runs plain,
// traced and (observed workload) with observability, alternating.
func (w simWorkload) traced(cfg config, o *outcome, ref simPass) error {
	if err := selfTest(); err != nil {
		o.fail(1, "%v", err)
	}
	seed := experiments.NewSuite(w.params(w.scale, cfg.seed)).Params().Seed
	spanPath := filepath.Join(cfg.out, "spans-"+w.name+".csv")
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(spanPath, []byte("point,span,proc,layer,start_ns,end_ns,parent,req\n"), 0o644); err != nil {
		return err
	}

	var (
		ops, records, requiredBytes           int64
		self, calls                           [nLayers]int64
		unattributed, targetCalls, targetByte int64
		events, mdsOps                        uint64
		hits, misses                          uint64
		retries                               int64
		computeNs, attribNs                   int64
		overheadNs                            float64 // traced − plain wall, summed over points
		obsNs                                 float64 // observed − plain wall, summed over points
		tracedWall                            time.Duration
		rows                                  []string
	)
	points := w.points(w.scale, seed)
	for _, ps := range points {
		want, ok := findPoint(ref.figs, ps)
		if !ok {
			o.fail(1, "%s: no figure point %s/%s", w.name, ps.fig, ps.label)
			continue
		}
		var plain, trac, observed []float64
		reproduced := "yes"
		mismatch := func(mode string, got core.Metrics) {
			reproduced = "NO"
			o.fail(1, "%s/%s: %s run ops=%d B=%d T=%v, figure point ops=%d B=%d T=%v", ps.fig, ps.label, mode,
				got.Ops, got.Blocks, got.IOTime, want.Metrics.Ops, want.Metrics.Blocks, want.Metrics.IOTime)
		}
		for rep := 0; rep < tracedReps; rep++ {
			pl, err := runPoint(ps, seed, nil, nil)
			if err != nil {
				return err
			}
			if !sameRun(pl.metrics, want.Metrics) {
				mismatch("plain", pl.metrics)
			}
			plain = append(plain, float64(pl.wall))
			computeNs += pl.compute.Nanoseconds()
			records += pl.metrics.Ops

			tr, err := runPoint(ps, seed, newRecorder(), nil)
			if err != nil {
				return err
			}
			if !sameRun(tr.metrics, want.Metrics) {
				mismatch("traced", tr.metrics)
			}
			trac = append(trac, float64(tr.wall))
			r := tr.r
			for l := layer(0); l < nLayers; l++ {
				self[l] += r.self[l]
				calls[l] += r.calls[l]
			}
			unattributed += r.unattributed
			targetCalls += r.targetCalls
			targetByte += r.targetBytes
			tracedWall += tr.tracedAll
			events += tr.events
			mdsOps += tr.mdsOps
			hits += tr.hits
			misses += tr.misses
			ops += tr.metrics.Ops
			requiredBytes += tr.metrics.Blocks * trace.BlockSize
			if rep == 0 {
				if err := r.writeSpans(spanPath, ps.fig+"/"+ps.label); err != nil {
					return err
				}
			}

			if w.observe != nil {
				ob, err := runPoint(ps, seed, nil, w.observe)
				if err != nil {
					return err
				}
				if !sameRun(ob.metrics, want.Metrics) {
					mismatch("observed", ob.metrics)
				}
				observed = append(observed, float64(ob.wall))
				attribNs += ob.attrib.Nanoseconds()
				retries += ob.retries
			}
		}
		overheadNs += median(trac) - median(plain)
		if w.observe != nil {
			obsNs += (median(observed) - median(plain)) * tracedReps
		}
		rows = append(rows, fmt.Sprintf("  point %-8s %-8s ops %8d  plain %8.2f ms  traced %8.2f ms  reproduced ops/B/T: %s",
			ps.fig, ps.label, want.Metrics.Ops, median(plain)/1e6, median(trac)/1e6, reproduced))
	}

	per := func(v float64, base int64) float64 { return v / float64(max(base, 1)) }
	o.set("trace.ops", float64(ops/tracedReps))
	o.set("trace.overhead_s", overheadNs/1e9)
	o.set("sim.events_per_op", per(float64(events), ops))
	o.set("sim.unattributed_ns_per_op", per(float64(unattributed), ops))
	o.set("device.calls_per_op", per(float64(calls[lDevice]), ops))
	o.set("device.self_ns_per_call", per(float64(self[lDevice]), calls[lDevice]))
	o.set("fsim.calls_per_op", per(float64(calls[lFsim]), ops))
	o.set("fsim.self_ns_per_call", per(float64(self[lFsim]), calls[lFsim]))
	o.set("pfs.calls_per_op", per(float64(calls[lPFS]), ops))
	o.set("pfs.self_ns_per_call", per(float64(self[lPFS]), calls[lPFS]))
	o.set("pfs.mds_ops_per_op", per(float64(mdsOps), ops))
	o.set("pfs.retries_per_op", per(float64(retries), ops))
	o.set("middleware.self_ns_per_call", per(float64(self[lMiddleware]), targetCalls))
	o.set("middleware.moved_per_required", per(float64(targetByte), requiredBytes))
	o.set("ioreq.cache.self_ns_per_call", per(float64(self[lCache]), calls[lCache]))
	o.set("ioreq.cache.hit_share", per(float64(hits), int64(hits+misses)))
	o.set("obs.overhead_ns_per_op", per(obsNs, ops))
	o.set("attrib.report_ns_per_op", per(float64(attribNs), ops))
	o.set("core.compute_ns_per_record", per(float64(computeNs), records))

	o.attempted += int64(len(points))
	o.table = append(o.table,
		fmt.Sprintf("per-layer table from %d traced runs of %d representative points (%d accesses per set)",
			tracedReps*len(points), len(points), ops/tracedReps),
		fmt.Sprintf("  %-12s %12s %12s %14s %14s %8s", "layer", "calls", "calls/op", "self ms", "self ns/call", "share"))
	layerRow := func(name string, n int64, ns int64) string {
		return fmt.Sprintf("  %-12s %12d %12.3f %14.2f %14.1f %7.1f%%", name, n, per(float64(n), ops),
			float64(ns)/1e6, per(float64(ns), n), 100*float64(ns)/float64(max(int64(tracedWall), 1)))
	}
	for l := layer(0); l < nLayers; l++ {
		n := calls[l]
		if l == lMiddleware {
			n = targetCalls
		}
		o.table = append(o.table, layerRow(layerNames[l], n, self[l]))
	}
	o.table = append(o.table, layerRow("sim(engine)", int64(events), unattributed))
	o.table = append(o.table, fmt.Sprintf("  traced wall %.2f ms over %d ops (%d runs of each point); tracing overhead %.2f ms (traced − untraced, medians)",
		float64(tracedWall)/1e6, ops, tracedReps, overheadNs/1e6))
	o.table = append(o.table, rows...)
	o.table = append(o.table, metricRows(o)...)
	return nil
}

// metricRows prints every per-layer metric the run set.
func metricRows(o *outcome) []string {
	rows := []string{"per-layer metrics (0 where the workload bypasses the layer) and what each should move:"}
	for _, m := range perLayer {
		rows = append(rows, fmt.Sprintf("  %-30s %16.4f %-5s  %s", m.Name, o.values[m.Name], m.Unit, strings.Join(targets[m.Name], "; ")))
	}
	rows = append(rows, "not measured:")
	keys := make([]string, 0, len(unmeasured))
	for k := range unmeasured {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rows = append(rows, fmt.Sprintf("  %s: %s", k, unmeasured[k]))
	}
	return rows
}
