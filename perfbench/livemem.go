package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"bps/internal/backend"
	"bps/internal/live"
	"bps/internal/workload"
)

// The livemem stream: liveWorkers closed-loop workers without think
// time, each owning a liveSlotBytes slot file and issuing
// liveAccessesPerWorker liveRecord-sized accesses at seeded random
// aligned offsets, one in four a write.
const (
	liveWorkers           = 2
	liveSlotBytes         = 64 << 20
	liveAccessesPerWorker = 1 << 18
	liveRecord            = 4 << 10
)

// liveStream generates the access stream from the seed.
func liveStream(seed int64) []workload.Access {
	rng := rand.New(rand.NewSource(seed))
	accs := make([]workload.Access, 0, liveWorkers*liveAccessesPerWorker)
	for pid := 0; pid < liveWorkers; pid++ {
		for i := 0; i < liveAccessesPerWorker; i++ {
			accs = append(accs, workload.Access{
				PID:   int64(pid),
				Slot:  pid,
				Off:   rng.Int63n(liveSlotBytes/liveRecord) * liveRecord,
				Size:  liveRecord,
				Write: rng.Intn(4) == 0,
			})
		}
	}
	return accs
}

func runLivemem(cfg config) (*outcome, error) {
	o := &outcome{}
	var (
		accs []workload.Access
		mem  *backend.MemFS
	)
	if err := timeSetup(o, func() { accs, mem = nil, nil }, func() error {
		accs = liveStream(cfg.seed)
		mem = backend.NewMemFS()
		_, err := live.Layout(mem, accs)
		return err
	}); err != nil {
		return nil, err
	}
	var wantBlocks int64
	for _, a := range accs {
		wantBlocks += a.Blocks()
	}

	// pass runs the stream once on fsys and checks it: no access failed
	// and the run counted exactly the generated N and B.
	pass1 := func(fsys backend.FS) (live.Report, time.Duration, time.Duration, error) {
		c0, t0 := cpuTime(), time.Now()
		rep, err := live.Run(live.Config{FS: fsys, Mode: live.Wall, Seed: cfg.seed, Label: "perfbench livemem"}, accs)
		wall, cpu := time.Since(t0), cpuTime()-c0
		if err != nil {
			return rep, 0, 0, err
		}
		o.attempted += int64(len(accs))
		if rep.Errors > 0 {
			o.fail(int64(rep.Errors), "livemem: %d accesses failed", rep.Errors)
		}
		if m := rep.Metrics; m.Ops != int64(len(accs)) || m.Blocks != wantBlocks {
			o.fail(int64(len(accs)), "livemem: run counted N=%d B=%d, stream has N=%d B=%d", m.Ops, m.Blocks, len(accs), wantBlocks)
		}
		return rep, wall, cpu, nil
	}

	if cfg.trace {
		return o, tracedLivemem(cfg, o, mem, pass1)
	}
	ps, err := measure(cfg.seconds, "self", func() (pass, error) {
		rep, wall, cpu, err := pass1(mem)
		if err != nil {
			return pass{}, err
		}
		lats := make([]float64, len(rep.Records))
		for i, r := range rep.Records {
			lats[i] = float64(r.End-r.Start) / 1e3
		}
		return pass{wall: wall, cpu: cpu, ops: rep.Metrics.Ops}.withLatencies(lats), nil
	})
	if err != nil {
		return nil, err
	}
	ps.record(o)
	return o, nil
}

// tracedLivemem runs one untraced reference pass and one pass with the
// backend's FS and File wrapped, and derives the per-layer metrics.
func tracedLivemem(cfg config, o *outcome, mem *backend.MemFS,
	pass1 func(backend.FS) (live.Report, time.Duration, time.Duration, error)) error {
	before := readRuntime()
	ref, refWall, _, err := pass1(mem)
	if err != nil {
		return err
	}
	recordRuntime(o, before, readRuntime(), refWall, ref.Metrics.Ops)

	tfs := &tracedFS{FS: mem, base: time.Now()}
	rep, wall, _, err := pass1(tfs)
	if err != nil {
		return err
	}
	var reads, writes, readNs, writeNs int64
	for _, f := range tfs.files {
		reads += f.reads
		writes += f.writes
		readNs += f.readNs
		writeNs += f.writeNs
	}
	ops := rep.Metrics.Ops
	per := func(v, base int64) float64 { return float64(v) / float64(max(base, 1)) }
	o.set("trace.ops", float64(ops))
	o.set("trace.overhead_s", (wall - refWall).Seconds())
	o.set("live.self_ns_per_op", per(int64(rep.Metrics.SumRespt)-readNs-writeNs, ops))
	o.set("backend.read_ns_per_call", per(readNs, reads))
	o.set("backend.write_ns_per_call", per(writeNs, writes))
	if err := tfs.writeSpans(filepath.Join(cfg.out, "spans-livemem.csv")); err != nil {
		return err
	}
	o.table = append(o.table,
		fmt.Sprintf("untraced reference pass: %d accesses in %.3f s; traced pass %.3f s (overhead %.3f s)",
			ref.Metrics.Ops, refWall.Seconds(), wall.Seconds(), (wall-refWall).Seconds()),
		fmt.Sprintf("  %-16s %12s %12s %14s %14s", "layer", "calls", "calls/op", "self ms", "self ns/call"),
		fmt.Sprintf("  %-16s %12d %12.3f %14.2f %14.1f", "live(+middleware)", ops, 1.0,
			float64(int64(rep.Metrics.SumRespt)-readNs-writeNs)/1e6, per(int64(rep.Metrics.SumRespt)-readNs-writeNs, ops)),
		fmt.Sprintf("  %-16s %12d %12.3f %14.2f %14.1f", "backend.read", reads, per(reads, ops), float64(readNs)/1e6, per(readNs, reads)),
		fmt.Sprintf("  %-16s %12d %12.3f %14.2f %14.1f", "backend.write", writes, per(writes, ops), float64(writeNs)/1e6, per(writeNs, writes)),
	)
	o.table = append(o.table, metricRows(o)...)
	return nil
}

// tracedFS wraps a backend.FS so every file it opens records a span
// around each ReadAt and WriteAt. A live worker owns its slot file, so
// each file's counters are written by one goroutine and read after the
// run has joined its workers.
type tracedFS struct {
	backend.FS
	base  time.Time
	files []*tracedFile
}

func (t *tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (backend.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	tf := &tracedFile{File: f, base: t.base, slot: len(t.files)}
	t.files = append(t.files, tf)
	return tf, nil
}

type fileSpan struct {
	write      bool
	start, end int64
}

type tracedFile struct {
	backend.File
	base            time.Time
	slot            int
	reads, writes   int64
	readNs, writeNs int64
	spans           []fileSpan
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Since(f.base)
	n, err := f.File.ReadAt(p, off)
	t1 := time.Since(f.base)
	f.reads++
	f.readNs += int64(t1 - t0)
	f.spans = append(f.spans, fileSpan{start: int64(t0), end: int64(t1)})
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Since(f.base)
	n, err := f.File.WriteAt(p, off)
	t1 := time.Since(f.base)
	f.writes++
	f.writeNs += int64(t1 - t0)
	f.spans = append(f.spans, fileSpan{write: true, start: int64(t0), end: int64(t1)})
	return n, err
}

// writeSpans dumps every backend span as CSV.
func (t *tracedFS) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(out)
	fmt.Fprintln(w, "point,span,proc,layer,start_ns,end_ns,parent,req")
	var i int
	for _, f := range t.files {
		for _, s := range f.spans {
			name := "backend.read"
			if s.write {
				name = "backend.write"
			}
			fmt.Fprintf(w, "live,%d,%d,%s,%d,%d,-1,0\n", i, f.slot, name, s.start, s.end)
			i++
		}
	}
	if err := w.Flush(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
