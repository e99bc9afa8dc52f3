package main

import (
	"fmt"

	"bps/internal/device"
	"bps/internal/experiments"
	"bps/internal/faults"
	"bps/internal/fsim"
	"bps/internal/ioreq"
	"bps/internal/middleware"
	"bps/internal/netsim"
	"bps/internal/pfs"
	"bps/internal/sim"
	"bps/internal/testbed"
	"bps/internal/workload"
)

// The traced pass cannot wrap a sweep run inside the experiments
// package, so it rebuilds one representative point per sweep from the
// public constructors — the same workload, testbed constants and
// derived seeds the figure uses — with span wrappers at every seam. The
// rebuilt point must reproduce the figure point's ops, B and T exactly
// (checkPoint), or the per-layer table would describe another program.

// pointSpec is one representative sweep point.
type pointSpec struct {
	fig, sweep, label string // figure that plots it, sweep ID and point label (seed derivation)
	build             func(b *stack) (workload.Env, workload.Starter, error)
}

// stack assembles one point's simulated stack on a fresh engine; with a
// nil recorder it is the plain stack.
type stack struct {
	e       *sim.Engine
	r       *recorder
	cache   *ioreq.Cache // the point's client cache, when it has one
	cluster *pfs.Cluster // the point's cluster, when it has one
}

// scaled mirrors experiments.Params.scaled: bytes × scale rounded up to
// a multiple of unit, at least one unit.
func scaled(scale float64, bytes, unit int64) int64 {
	v := int64(scale * float64(bytes))
	if v < unit {
		return unit
	}
	return (v + unit - 1) / unit * unit
}

func roundTo(v, unit int64) int64 {
	if v < unit {
		return unit
	}
	return v / unit * unit
}

// paperPoints returns the paper workload's representative points: the
// largest concurrency or smallest record of each sweep of `-fig all`.
func paperPoints(scale float64, seed int64) []pointSpec {
	const hdd, ssd = testbed.HDD, testbed.SSD
	set1 := func() pointSpec {
		const record = 4 << 20
		size := scaled(scale, 64<<30, record)
		w := workload.SeqRead{Label: "iozone-seq", Processes: 1, BytesPerProcess: size, RecordSize: record}
		return pointSpec{"fig4", "set1", "pvfs-8s", func(b *stack) (workload.Env, workload.Starter, error) {
			env, err := b.sharedFile(testbed.ClusterSpec{Servers: 8, Media: hdd, Clients: 1}, size)
			return env, w, err
		}}
	}
	set2 := func(fig string, m testbed.Media) pointSpec {
		const record = 4 << 10
		size := scaled(scale, 16<<30, record)
		w := workload.SeqRead{Label: "iozone-sizes", Processes: 1, BytesPerProcess: size, RecordSize: record}
		return pointSpec{fig, "set2-" + m.String(), "4KB", func(b *stack) (workload.Env, workload.Starter, error) {
			env, err := b.local(testbed.NewDevice(b.e, m), size)
			return env, w, err
		}}
	}
	set3a := func() pointSpec {
		const record, procs = 64 << 10, 8
		perProc := roundTo(scaled(scale, 32<<30, record*8)/procs, record)
		w := workload.SeqRead{Label: "iozone-tp", Processes: procs, BytesPerProcess: perProc, RecordSize: record}
		return pointSpec{"fig9", "set3a", "8p", func(b *stack) (workload.Env, workload.Starter, error) {
			env, err := b.pinnedFiles(testbed.ClusterSpec{Servers: 8, Media: hdd, Clients: procs}, perProc)
			return env, w, err
		}}
	}
	set3b := func() pointSpec {
		const transfer, procs = 64 << 10, 32
		size := scaled(scale, 32<<30, transfer*procs)
		segment := roundTo(size/procs, transfer)
		w := workload.SeqRead{Label: "ior", Processes: procs, BytesPerProcess: segment, RecordSize: transfer,
			UseMPIIO: true, StartOffset: func(pid int) int64 { return int64(pid) * segment }}
		return pointSpec{"fig11", "set3b", "32p", func(b *stack) (workload.Env, workload.Starter, error) {
			env, err := b.sharedFile(testbed.ClusterSpec{Servers: 8, Media: hdd, Clients: procs}, size)
			return env, w, err
		}}
	}
	set4 := func() pointSpec {
		regions := max(int(scale*4096000), 256)
		w := workload.Noncontig{Label: "hpio", Processes: 1, RegionCount: regions, RegionSize: 256,
			RegionSpacing: 8, RegionsPerCall: 1024, Sieving: true}
		size := w.Span() + w.RegionSpacing
		return pointSpec{"fig12", "set4", "gap8B", func(b *stack) (workload.Env, workload.Starter, error) {
			env, err := b.sharedFile(testbed.ClusterSpec{Servers: 4, Media: hdd, Clients: 1}, size)
			return env, w, err
		}}
	}
	ext1 := func() pointSpec {
		hops := max(int(scale*192*64), 32)
		w := workload.HopRead{Label: "hopread", Processes: 1, Hops: hops, RecordsPerHop: 4, RecordSize: 64 << 10,
			PrefetchWindow: 16 << 20, Seed: seed}
		size := w.RequiredBytes() * 64 / 4
		return pointSpec{"ext1", "ext1", "16MB", func(b *stack) (workload.Env, workload.Starter, error) {
			env, err := b.local(testbed.NewDevice(b.e, hdd), size)
			return env, w, err
		}}
	}
	ext2 := func() pointSpec {
		const record = 4 << 10
		size := scaled(scale, 16<<30, record)
		w := workload.SeqRead{Label: "iozone-write", Processes: 1, BytesPerProcess: size, RecordSize: record, Write: true}
		return pointSpec{"ext2", "ext2", "4KB", func(b *stack) (workload.Env, workload.Starter, error) {
			env, err := b.local(testbed.NewFTLSSD(b.e), size)
			return env, w, err
		}}
	}
	ext3 := func() pointSpec {
		const procs = 4
		regions := max(int(scale*64*2048), 128) / procs * procs
		w := workload.InterleavedRead{Label: "romio", Processes: procs, TotalRegions: regions, RegionSize: 16 << 10,
			Method: workload.SievingAccess}
		return pointSpec{"ext3", "ext3", "sieving", func(b *stack) (workload.Env, workload.Starter, error) {
			env, err := b.local(testbed.NewDevice(b.e, hdd), w.RequiredBytes())
			return env, w, err
		}}
	}
	return []pointSpec{set1(), set2("fig5", hdd), set2("fig6", ssd), set3a(), set3b(), set4(), ext1(), ext2(), ext3()}
}

// observedPoints returns the observed workload's representative points:
// the highest fault rate and a half-file client cache.
func observedPoints(scale float64, seed int64) []pointSpec {
	faultPoint := func() pointSpec {
		const record, procs, servers, rate = 256 << 10, 4, 4, 0.064
		perProc := scaled(scale, (8<<30)/procs, record)
		w := workload.SeqRead{Label: "ior-faults", Processes: procs, BytesPerProcess: perProc, RecordSize: record,
			UseMPIIO: true, StartOffset: func(pid int) int64 { return int64(pid) * perProc }}
		label := "r0.064"
		plan := faults.Profile(experiments.DeriveSeed(seed, "faultsweep-plan", label), rate)
		return pointSpec{experiments.FaultFigureID, "faults", label, func(b *stack) (workload.Env, workload.Starter, error) {
			env, err := b.sharedFile(testbed.ClusterSpec{Servers: servers, Media: testbed.HDD, Clients: procs, Faults: plan}, perProc*procs)
			return env, w, err
		}}
	}
	cachePoint := func() pointSpec {
		const record, procs, servers, perHop = 64 << 10, 4, 4, 4
		size := scaled(scale, 4<<30, record)
		hops := max(int(4*size/procs/(perHop*record)), 16)
		w := workload.HopRead{Label: "hop-clientcache", Processes: procs, Hops: hops, RecordsPerHop: perHop, RecordSize: record,
			Seed: experiments.DeriveSeed(seed, experiments.ClientCacheFigureID, "hops")}
		spec := testbed.ClusterSpec{Servers: servers, Media: testbed.HDD, Clients: procs, ServerCache: -1,
			ClientCache: ioreq.CacheConfig{CapacityBytes: size / 2, PageSize: record, ReadAhead: 2 * record}}
		return pointSpec{experiments.ClientCacheFigureID, experiments.ClientCacheFigureID, "1/2", func(b *stack) (workload.Env, workload.Starter, error) {
			env, err := b.sharedFile(spec, size)
			return env, w, err
		}}
	}
	return []pointSpec{faultPoint(), cachePoint()}
}

// env is the benchmark's own workload.Env: the figure's files behind
// targets the benchmark assembles, so it can put its wrappers at the
// Target, cache, pfs and fsim seams.
type env struct {
	r       *recorder // nil for the plain stack
	targets func(pid int) middleware.Target
	moved   func() int64
}

func (v *env) Target(pid int) middleware.Target {
	t := v.targets(pid)
	if v.r != nil {
		t = t.With(v.r.countTarget(t.Layer()))
	}
	return t
}

func (v *env) Moved() int64 { return v.moved() }

func (b *stack) wrapDevice(d device.Device) device.Device {
	if b.r == nil {
		return d
	}
	return tracedDevice{Device: d, r: b.r}
}

func (b *stack) wrapLayer(l layer, next ioreq.Layer) ioreq.Layer {
	if b.r == nil {
		return next
	}
	return b.r.wrap(l, next)
}

// local is testbed.NewLocalEnvOn (one file on an fsim file system over
// dev, every pid on that file) with the fsim seam wrapped.
func (b *stack) local(dev device.Device, size int64) (*env, error) {
	le, err := testbed.NewLocalEnvOn(b.e, b.wrapDevice(dev), 1, size)
	if err != nil {
		return nil, err
	}
	f := le.Files[0]
	return &env{
		r: b.r,
		targets: func(int) middleware.Target {
			return middleware.NewTarget(b.wrapLayer(lFsim, f.Layer()), f.Name(), f.Size())
		},
		moved: le.Moved,
	}, nil
}

// cluster mirrors the testbed's classic-engine cluster construction,
// with the benchmark's device wrapper on every server device.
func (b *stack) buildCluster(spec testbed.ClusterSpec) (*pfs.Cluster, []*pfs.Client) {
	e := b.e
	fabric := netsim.NewFabric(e, netsim.Config{
		Bandwidth:     125e6,
		Latency:       50 * sim.Microsecond,
		MTU:           9000,
		FrameOverhead: sim.Microsecond,
		BackplaneRate: testbed.BackplaneRate,
	})
	if lf := faults.NewLink(spec.Faults); lf != nil {
		fabric.SetFaults(lf)
	}
	devs := make([]device.Device, spec.Servers)
	for i := range devs {
		devs[i] = b.wrapDevice(faults.WrapDevice(e, testbed.NewDevice(e, spec.Media), spec.Faults,
			fmt.Sprintf("ios%d.%s", i, spec.Media)))
	}
	scache, sra := int64(testbed.ServerCacheBytes), int64(testbed.ServerReadAhead)
	if spec.ServerCache < 0 {
		scache, sra = 0, 0
	}
	cfg := pfs.Config{ServerFS: fsim.Config{CacheBytes: scache, ReadAhead: sra}, Recovery: spec.Recovery}
	if spec.Faults.Enabled() {
		if !cfg.Recovery.Enabled {
			cfg.Recovery = testbed.DefaultRecovery()
		}
		if spec.Faults.ServerEnabled() {
			plan := spec.Faults
			cfg.Faults = func(id int) pfs.ServerFaults { return faults.NewServerFaults(plan, id) }
		}
	}
	c := pfs.NewCluster(e, fabric, cfg, devs)
	b.cluster = c
	clients := make([]*pfs.Client, spec.Clients)
	for i := range clients {
		clients[i] = c.NewClient(fmt.Sprintf("cn%d", i))
	}
	return c, clients
}

// clusterEnv serves pid through client pid and file pid (modulo), with
// the spec's client cache in front of the pfs client.
func (b *stack) clusterEnv(spec testbed.ClusterSpec, c *pfs.Cluster, clients []*pfs.Client, files []*pfs.File) *env {
	cache := ioreq.NewCache(spec.ClientCache)
	b.cache = cache
	return &env{
		r: b.r,
		targets: func(pid int) middleware.Target {
			f := files[pid%len(files)]
			t := middleware.NewTarget(b.wrapLayer(lPFS, clients[pid%len(clients)].Layer(f)), f.Name(), f.Size())
			if cache != nil {
				var span ioreq.Middleware
				if b.r != nil {
					span = b.r.middleware(lCache)
				}
				t = t.Wrap(span, cache.Middleware(f.Size()))
			}
			return t
		},
		moved: c.Moved,
	}
}

// sharedFile mirrors testbed.NewSharedFileEnv.
func (b *stack) sharedFile(spec testbed.ClusterSpec, size int64) (*env, error) {
	c, clients := b.buildCluster(spec)
	f, err := c.Create("shared", size, c.DefaultLayout())
	if err != nil {
		return nil, err
	}
	c.FlushCaches()
	return b.clusterEnv(spec, c, clients, []*pfs.File{f}), nil
}

// pinnedFiles mirrors testbed.NewPinnedFilesEnv.
func (b *stack) pinnedFiles(spec testbed.ClusterSpec, perProc int64) (*env, error) {
	c, clients := b.buildCluster(spec)
	var files []*pfs.File
	for i := 0; i < spec.Clients; i++ {
		f, err := c.Create(fmt.Sprintf("own%d", i), perProc, c.PinnedLayout(i%spec.Servers))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	c.FlushCaches()
	return b.clusterEnv(spec, c, clients, files), nil
}
