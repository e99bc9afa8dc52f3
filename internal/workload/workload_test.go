package workload

import (
	"fmt"
	"testing"

	"bps/internal/core"
	"bps/internal/device"
	"bps/internal/fsim"
	"bps/internal/middleware"
	"bps/internal/netsim"
	"bps/internal/obs"
	"bps/internal/pfs"
	"bps/internal/sim"
	"bps/internal/trace"
)

// newLocalEnv builds a RAM-backed local env with one file per process.
func newLocalEnv(e *sim.Engine, nfiles int, fileSize int64) *LocalEnv {
	dev := device.NewRAMDisk(e, "ram", 16<<30, 10*sim.Microsecond, 500e6)
	fs := fsim.New(dev, fsim.Config{})
	env := &LocalEnv{FS: fs}
	for i := 0; i < nfiles; i++ {
		f, err := fs.Create(fileName(i), fileSize)
		if err != nil {
			panic(err)
		}
		env.Files = append(env.Files, f)
	}
	return env
}

func fileName(i int) string { return fmt.Sprintf("f%d", i) }

func newClusterEnv(e *sim.Engine, nservers, nclients int, files func(c *pfs.Cluster) []*pfs.File) *ClusterEnv {
	fabric := netsim.NewFabric(e, netsim.DefaultGigabit())
	devs := make([]device.Device, nservers)
	for i := range devs {
		devs[i] = device.NewRAMDisk(e, "d", 16<<30, 10*sim.Microsecond, 200e6)
	}
	cluster := pfs.NewCluster(e, fabric, pfs.Config{}, devs)
	env := &ClusterEnv{Cluster: cluster, Files: files(cluster)}
	for i := 0; i < nclients; i++ {
		env.Clients = append(env.Clients, cluster.NewClient("client"))
	}
	return env
}

func TestSeqReadValidate(t *testing.T) {
	e := sim.NewEngine(1)
	env := newLocalEnv(e, 1, 1<<20)
	bad := []SeqRead{
		{Processes: 0, BytesPerProcess: 1, RecordSize: 1},
		{Processes: 1, BytesPerProcess: 0, RecordSize: 1},
		{Processes: 1, BytesPerProcess: 1, RecordSize: 0},
	}
	for i, w := range bad {
		if _, err := w.Run(e, env); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSeqReadSingleProcess(t *testing.T) {
	e := sim.NewEngine(1)
	env := newLocalEnv(e, 1, 1<<20)
	w := SeqRead{Label: "seq", Processes: 1, BytesPerProcess: 1 << 20, RecordSize: 64 << 10}
	res, err := w.Run(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Len() != 16 {
		t.Fatalf("recorded %d ops, want 16", res.Trace.Len())
	}
	if res.Trace.TotalBytes() != 1<<20 {
		t.Fatalf("required bytes = %d", res.Trace.TotalBytes())
	}
	if res.Moved != 1<<20 {
		t.Fatalf("moved = %d", res.Moved)
	}
	if res.ExecTime <= 0 || res.Errors != 0 {
		t.Fatalf("exec=%v errors=%d", res.ExecTime, res.Errors)
	}
}

func TestSeqReadTailRecord(t *testing.T) {
	e := sim.NewEngine(1)
	env := newLocalEnv(e, 1, 1<<20)
	// 100 KiB in 64 KiB records: one full + one 36 KiB tail.
	w := SeqRead{Label: "tail", Processes: 1, BytesPerProcess: 100 << 10, RecordSize: 64 << 10}
	res, err := w.Run(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Len() != 2 {
		t.Fatalf("ops = %d, want 2", res.Trace.Len())
	}
	if res.Trace.TotalBytes() != 100<<10 {
		t.Fatalf("required = %d, want %d", res.Trace.TotalBytes(), 100<<10)
	}
}

// TestCollectorsPresized: workloads that know their per-process access
// count size each collector to it up front, so a run leaves every
// collector exactly full (tail records and partial batches included).
func TestCollectorsPresized(t *testing.T) {
	for _, w := range []Starter{
		SeqRead{Label: "seq", Processes: 2, BytesPerProcess: 100 << 10, RecordSize: 64 << 10},
		Noncontig{Label: "nc", Processes: 2, RegionCount: 70, RegionSize: 256, RegionSpacing: 1024, RegionsPerCall: 32},
		HopRead{Label: "hop", Processes: 2, Hops: 5, RecordsPerHop: 3, RecordSize: 4 << 10, Seed: 1},
	} {
		e := sim.NewEngine(1)
		pend, err := w.Start(e, newLocalEnv(e, 2, 4<<20))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for _, col := range pend.collectors {
			if n := col.Len(); n == 0 || cap(col.Records()) != n {
				t.Errorf("%T: collector %d holds %d records in capacity %d", w, col.PID(), n, cap(col.Records()))
			}
		}
	}
}

func TestSeqReadMultiProcessOwnFiles(t *testing.T) {
	e := sim.NewEngine(1)
	env := newLocalEnv(e, 4, 1<<20)
	w := SeqRead{Label: "tp", Processes: 4, BytesPerProcess: 1 << 20, RecordSize: 64 << 10}
	res, err := w.Run(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Trace.PIDs()); got != 4 {
		t.Fatalf("PIDs = %d, want 4", got)
	}
	if res.Moved != 4<<20 {
		t.Fatalf("moved = %d", res.Moved)
	}
}

func TestSeqReadSegmentedSharedFile(t *testing.T) {
	e := sim.NewEngine(1)
	const nprocs = 4
	const seg = 1 << 20
	env := newClusterEnv(e, 2, nprocs, func(c *pfs.Cluster) []*pfs.File {
		f, err := c.Create("shared", nprocs*seg, c.DefaultLayout())
		if err != nil {
			panic(err)
		}
		return []*pfs.File{f}
	})
	w := SeqRead{
		Label:           "ior",
		Processes:       nprocs,
		BytesPerProcess: seg,
		RecordSize:      64 << 10,
		StartOffset:     func(pid int) int64 { return int64(pid) * seg },
		UseMPIIO:        true,
	}
	res, err := w.Run(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Moved != nprocs*seg {
		t.Fatalf("moved = %d, want %d", res.Moved, nprocs*seg)
	}
	if res.Trace.Len() != nprocs*seg/(64<<10) {
		t.Fatalf("ops = %d", res.Trace.Len())
	}
}

func TestSeqReadComputePhaseExtendsExecNotIOTime(t *testing.T) {
	run := func(think sim.Time) (exec, iotime sim.Time) {
		e := sim.NewEngine(1)
		env := newLocalEnv(e, 1, 1<<20)
		w := SeqRead{Label: "c", Processes: 1, BytesPerProcess: 1 << 20, RecordSize: 256 << 10, ComputePerOp: think}
		res, err := w.Run(e, env)
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime, core.OverlapTime(res.Trace.Records())
	}
	exec0, io0 := run(0)
	exec1, io1 := run(10 * sim.Millisecond)
	if io0 != io1 {
		t.Fatalf("think time changed I/O time: %v vs %v", io0, io1)
	}
	if exec1 != exec0+4*10*sim.Millisecond {
		t.Fatalf("exec with think = %v, want %v", exec1, exec0+40*sim.Millisecond)
	}
}

func TestSeqReadOutOfBoundsCountsErrors(t *testing.T) {
	e := sim.NewEngine(1)
	env := newLocalEnv(e, 1, 64<<10) // file smaller than the workload
	w := SeqRead{Label: "err", Processes: 1, BytesPerProcess: 128 << 10, RecordSize: 64 << 10}
	res, err := w.Run(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 1 {
		t.Fatalf("errors = %d, want 1", res.Errors)
	}
	// Both accesses recorded, including the failed one (paper §III.A).
	if res.Trace.Len() != 2 {
		t.Fatalf("trace len = %d, want 2", res.Trace.Len())
	}
}

func TestNoncontigValidate(t *testing.T) {
	e := sim.NewEngine(1)
	env := newLocalEnv(e, 1, 1<<20)
	bad := []Noncontig{
		{Processes: 0, RegionCount: 1, RegionSize: 1},
		{Processes: 1, RegionCount: 0, RegionSize: 1},
		{Processes: 1, RegionCount: 1, RegionSize: 0},
		{Processes: 1, RegionCount: 1, RegionSize: 1, RegionSpacing: -1},
	}
	for i, w := range bad {
		if _, err := w.Run(e, env); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNoncontigSpanAndRequired(t *testing.T) {
	w := Noncontig{RegionCount: 10, RegionSize: 256, RegionSpacing: 1024}
	if w.Span() != 10*(256+1024)-1024 {
		t.Fatalf("Span = %d", w.Span())
	}
	if w.RequiredBytes() != 2560 {
		t.Fatalf("Required = %d", w.RequiredBytes())
	}
}

func TestNoncontigSievingMovesMore(t *testing.T) {
	run := func(sieving bool) Result {
		e := sim.NewEngine(1)
		env := newLocalEnv(e, 1, 64<<20)
		w := Noncontig{
			Label:          "hpio",
			Processes:      1,
			RegionCount:    512,
			RegionSize:     256,
			RegionSpacing:  4096,
			RegionsPerCall: 128,
			Sieving:        sieving,
		}
		res, err := w.Run(e, env)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sieve, direct := run(true), run(false)
	required := int64(512 * 256)
	if direct.Moved != required {
		t.Fatalf("direct moved %d, want %d", direct.Moved, required)
	}
	if sieve.Moved <= direct.Moved {
		t.Fatalf("sieving moved %d, direct %d: holes not read", sieve.Moved, direct.Moved)
	}
	// Both record only the required data: per the paper, B is the total
	// required bytes divided by the block size — 128 regions × 256 B per
	// call is 64 blocks, over 4 calls.
	wantBlocks := trace.BlocksOf(128*256) * 4
	if sieve.Trace.TotalBlocks() != wantBlocks || direct.Trace.TotalBlocks() != wantBlocks {
		t.Fatalf("recorded blocks: sieve=%d direct=%d want=%d",
			sieve.Trace.TotalBlocks(), direct.Trace.TotalBlocks(), wantBlocks)
	}
	// 512 regions in calls of 128 → 4 MPI-IO accesses.
	if sieve.Trace.Len() != 4 {
		t.Fatalf("ops = %d, want 4", sieve.Trace.Len())
	}
}

func TestNoncontigMultiProcessDisjoint(t *testing.T) {
	e := sim.NewEngine(1)
	env := newLocalEnv(e, 1, 64<<20)
	w := Noncontig{
		Label:          "hpio4",
		Processes:      4,
		RegionCount:    64,
		RegionSize:     256,
		RegionSpacing:  1024,
		RegionsPerCall: 32,
		Sieving:        true,
	}
	res, err := w.Run(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d (processes overlapped?)", res.Errors)
	}
	if got := len(res.Trace.PIDs()); got != 4 {
		t.Fatalf("PIDs = %d", got)
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	run := func() Result {
		e := sim.NewEngine(5)
		env := newLocalEnv(e, 2, 4<<20)
		w := SeqRead{Label: "det", Processes: 2, BytesPerProcess: 4 << 20, RecordSize: 64 << 10}
		res, err := w.Run(e, env)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ExecTime != b.ExecTime || a.Moved != b.Moved || a.Trace.Len() != b.Trace.Len() {
		t.Fatal("nondeterministic workload run")
	}
	for i, r := range a.Trace.Records() {
		if r != b.Trace.Records()[i] {
			t.Fatalf("trace records diverge at %d", i)
		}
	}
}

func TestHopReadValidate(t *testing.T) {
	e := sim.NewEngine(1)
	env := newLocalEnv(e, 1, 1<<20)
	bad := []HopRead{
		{Processes: 0, Hops: 1, RecordsPerHop: 1, RecordSize: 1},
		{Processes: 1, Hops: 0, RecordsPerHop: 1, RecordSize: 1},
		{Processes: 1, Hops: 1, RecordsPerHop: 0, RecordSize: 1},
		{Processes: 1, Hops: 1, RecordsPerHop: 1, RecordSize: 0},
		{Processes: 1, Hops: 1, RecordsPerHop: 1, RecordSize: 1, PrefetchWindow: -1},
	}
	for i, w := range bad {
		if _, err := w.Run(e, env); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestHopReadPrefetchMovesMore(t *testing.T) {
	run := func(window int64) Result {
		e := sim.NewEngine(1)
		env := newLocalEnv(e, 1, 64<<20)
		w := HopRead{
			Label: "hop", Processes: 1, Hops: 16, RecordsPerHop: 4,
			RecordSize: 64 << 10, PrefetchWindow: window, Seed: 5,
		}
		res, err := w.Run(e, env)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := run(0), run(4<<20)
	if off.Errors != 0 || on.Errors != 0 {
		t.Fatalf("errors: off=%d on=%d", off.Errors, on.Errors)
	}
	// Required bytes identical; moved grows with prefetching.
	if off.Trace.TotalBlocks() != on.Trace.TotalBlocks() {
		t.Fatalf("required blocks differ: %d vs %d", off.Trace.TotalBlocks(), on.Trace.TotalBlocks())
	}
	want := HopRead{Hops: 16, RecordsPerHop: 4, RecordSize: 64 << 10}.RequiredBytes()
	if off.Moved != want {
		t.Fatalf("no-prefetch moved %d, want required %d", off.Moved, want)
	}
	if on.Moved <= 2*off.Moved {
		t.Fatalf("prefetching moved %d, want ≫ %d (stranded windows)", on.Moved, off.Moved)
	}
}

func TestHopReadDeterminism(t *testing.T) {
	run := func() Result {
		e := sim.NewEngine(2)
		env := newLocalEnv(e, 1, 32<<20)
		w := HopRead{
			Label: "hop", Processes: 2, Hops: 8, RecordsPerHop: 2,
			RecordSize: 64 << 10, PrefetchWindow: 1 << 20, Seed: 3,
		}
		res, err := w.Run(e, env)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ExecTime != b.ExecTime || a.Moved != b.Moved {
		t.Fatal("nondeterministic hop read")
	}
}

func TestSeqWriteMode(t *testing.T) {
	e := sim.NewEngine(1)
	reg := obs.Attach(e, obs.Options{}).Registry()
	env := newLocalEnv(e, 1, 1<<20)
	w := SeqRead{Label: "wr", Processes: 1, BytesPerProcess: 1 << 20, RecordSize: 64 << 10, Write: true}
	res, err := w.Run(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Trace.Len() != 16 {
		t.Fatalf("errors=%d ops=%d", res.Errors, res.Trace.Len())
	}
	if got := reg.Counter("device/ram/bytes_written").Value(); got != 1<<20 {
		t.Fatalf("device wrote %d", got)
	}
	if got := reg.Counter("device/ram/bytes_read").Value(); got != 0 {
		t.Fatalf("write workload read %d bytes", got)
	}
}

func TestSeqWriteModeMPIIO(t *testing.T) {
	e := sim.NewEngine(1)
	reg := obs.Attach(e, obs.Options{}).Registry()
	env := newLocalEnv(e, 1, 1<<20)
	w := SeqRead{Label: "wrm", Processes: 1, BytesPerProcess: 512 << 10, RecordSize: 64 << 10, Write: true, UseMPIIO: true}
	res, err := w.Run(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Trace.Len() != 8 {
		t.Fatalf("errors=%d ops=%d", res.Errors, res.Trace.Len())
	}
	if got := reg.Counter("device/ram/bytes_written").Value(); got != 512<<10 {
		t.Fatalf("device wrote %d", got)
	}
}

func TestFirstPIDOffsetsTrace(t *testing.T) {
	e := sim.NewEngine(1)
	env := newLocalEnv(e, 2, 1<<20)
	w := SeqRead{Label: "pid", Processes: 2, BytesPerProcess: 128 << 10, RecordSize: 64 << 10, FirstPID: 10}
	res, err := w.Run(e, env)
	if err != nil {
		t.Fatal(err)
	}
	pids := res.Trace.PIDs()
	if len(pids) != 2 || pids[0] != 10 || pids[1] != 11 {
		t.Fatalf("PIDs = %v, want [10 11]", pids)
	}
}

func TestTwoWorkloadsShareOneEngine(t *testing.T) {
	e := sim.NewEngine(1)
	env := newLocalEnv(e, 4, 1<<20)
	a := SeqRead{Label: "a", Processes: 2, BytesPerProcess: 1 << 20, RecordSize: 64 << 10}
	b := SeqRead{Label: "b", Processes: 2, BytesPerProcess: 512 << 10, RecordSize: 64 << 10, FirstPID: 2}
	pa, err := a.Start(e, env)
	if err != nil {
		t.Fatal(err)
	}
	// Use files 2,3 for workload b by targeting pids 2,3.
	pb, err := b.Start(e, &shiftedEnv{env: env, shift: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ra, rb := pa.Result(), pb.Result()
	if ra.Trace.Len() != 32 || rb.Trace.Len() != 16 {
		t.Fatalf("ops: a=%d b=%d", ra.Trace.Len(), rb.Trace.Len())
	}
	// The shorter workload finished first; exec times are per workload.
	if rb.ExecTime >= ra.ExecTime {
		t.Fatalf("exec: a=%v b=%v, b should finish first", ra.ExecTime, rb.ExecTime)
	}
	// Combined trace covers all four PIDs.
	combined := trace.Gather()
	combined.Append(ra.Trace.Records()...)
	combined.Append(rb.Trace.Records()...)
	if got := len(combined.PIDs()); got != 4 {
		t.Fatalf("combined PIDs = %d", got)
	}
}

// shiftedEnv offsets pid→target mapping so two workloads on one env use
// disjoint files.
type shiftedEnv struct {
	env   Env
	shift int
}

func (s *shiftedEnv) Target(pid int) middleware.Target { return s.env.Target(pid + s.shift) }
func (s *shiftedEnv) Moved() int64                     { return s.env.Moved() }

func TestReplayPreservesStructure(t *testing.T) {
	// A trace with two processes: one dense, one with a think gap.
	records := []trace.Record{
		{PID: 1, Blocks: 128, Start: 0, End: 10 * sim.Millisecond},
		{PID: 1, Blocks: 128, Start: 10 * sim.Millisecond, End: 20 * sim.Millisecond},
		{PID: 2, Blocks: 64, Start: 0, End: 5 * sim.Millisecond},
		{PID: 2, Blocks: 64, Start: 100 * sim.Millisecond, End: 105 * sim.Millisecond},
	}
	e := sim.NewEngine(1)
	env := newLocalEnv(e, 2, 1<<20)
	res, err := Replay{Label: "rp", Records: records}.Run(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Trace.Len() != 4 {
		t.Fatalf("errors=%d ops=%d", res.Errors, res.Trace.Len())
	}
	// Required bytes preserved exactly.
	if res.Trace.TotalBlocks() != 128+128+64+64 {
		t.Fatalf("blocks = %d", res.Trace.TotalBlocks())
	}
	// PID 2's second access must not start before its recorded think gap.
	var second trace.Record
	for _, r := range res.Trace.Records() {
		if r.PID == 2 && r.Start > second.Start {
			second = r
		}
	}
	if second.Start < 100*sim.Millisecond {
		t.Fatalf("replayed access ignored the think gap: start %v", second.Start)
	}
}

func TestReplayPIDBytes(t *testing.T) {
	w := Replay{Records: []trace.Record{
		{PID: 3, Blocks: 10},
		{PID: 3, Blocks: 20},
		{PID: 7, Blocks: 5},
	}}
	sizes := w.PIDBytes()
	if sizes[3] != 30*trace.BlockSize || sizes[7] != 5*trace.BlockSize {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestReplayValidation(t *testing.T) {
	e := sim.NewEngine(1)
	env := newLocalEnv(e, 1, 1<<20)
	if _, err := (Replay{Label: "x"}).Run(e, env); err == nil {
		t.Error("empty trace accepted")
	}
	bad := []trace.Record{{PID: 1, Blocks: 0, Start: 0, End: 1}}
	if _, err := (Replay{Label: "x", Records: bad}).Run(e, env); err == nil {
		t.Error("zero-block record accepted")
	}
}

func TestReplayNonZeroBase(t *testing.T) {
	// Recorded times far from zero replay relative to the earliest start.
	records := []trace.Record{
		{PID: 1, Blocks: 8, Start: 100 * sim.Second, End: 100*sim.Second + sim.Millisecond},
		{PID: 1, Blocks: 8, Start: 101 * sim.Second, End: 101*sim.Second + sim.Millisecond},
	}
	e := sim.NewEngine(1)
	env := newLocalEnv(e, 1, 1<<20)
	res, err := Replay{Label: "rp", Records: records}.Run(e, env)
	if err != nil {
		t.Fatal(err)
	}
	// The replay spans about 1 s (the recorded gap), not 101 s.
	if res.ExecTime > 2*sim.Second {
		t.Fatalf("replay took %v; base not normalized", res.ExecTime)
	}
	if res.ExecTime < sim.Second {
		t.Fatalf("replay took %v; think gap dropped", res.ExecTime)
	}
}

func TestInterleavedReadValidation(t *testing.T) {
	e := sim.NewEngine(1)
	env := newLocalEnv(e, 1, 1<<20)
	bad := []InterleavedRead{
		{Processes: 0, TotalRegions: 4, RegionSize: 1},
		{Processes: 8, TotalRegions: 4, RegionSize: 1},
		{Processes: 1, TotalRegions: 4, RegionSize: 0},
	}
	for i, w := range bad {
		if _, err := w.Run(e, env); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if DirectAccess.String() != "direct" || SievingAccess.String() != "sieving" ||
		CollectiveAccess.String() != "collective" {
		t.Error("method strings wrong")
	}
}

func TestInterleavedReadMethodsAgreeOnRequired(t *testing.T) {
	run := func(m AccessMethod) Result {
		e := sim.NewEngine(1)
		env := newLocalEnv(e, 1, 1<<20)
		w := InterleavedRead{
			Label: "il", Processes: 4, TotalRegions: 64, RegionSize: 16 << 10, Method: m,
		}
		res, err := w.Run(e, env)
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("%v: %d errors", m, res.Errors)
		}
		return res
	}
	d, s, c := run(DirectAccess), run(SievingAccess), run(CollectiveAccess)
	want := int64(64 * 16 << 10 / trace.BlockSize)
	for m, res := range map[AccessMethod]Result{DirectAccess: d, SievingAccess: s, CollectiveAccess: c} {
		if res.Trace.TotalBlocks() != want {
			t.Errorf("%v required blocks = %d, want %d", m, res.Trace.TotalBlocks(), want)
		}
	}
	// Collective moves the file once; sieving re-reads per process.
	if c.Moved >= s.Moved {
		t.Errorf("collective moved %d, sieving %d", c.Moved, s.Moved)
	}
}
