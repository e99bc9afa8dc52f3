package bps

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"bps/internal/core"
	"bps/internal/device"
	"bps/internal/experiments"
	"bps/internal/faults"
	"bps/internal/fsim"
	"bps/internal/ioreq"
	"bps/internal/pfs"
	"bps/internal/sim"
	"bps/internal/testbed"
	"bps/internal/workload"
)

// SimulateEach runs fn(i) for every i in [0, n) across at most parallel
// worker goroutines (0 means GOMAXPROCS) and returns the lowest-index
// error once all runs have finished. It is the batch entry point for
// independent simulations — what-if comparisons across storage stacks,
// seed sweeps, replay fan-outs. Each invocation must be self-contained:
// build its own RunConfig and call one Simulate*/Replay function, which
// runs on its own engine; results must depend only on i, never on
// execution order, so a parallel batch is bit-identical to a sequential
// one.
func SimulateEach(parallel, n int, fn func(i int) error) error {
	return experiments.ForEach(parallel, n, fn)
}

// Media selects the storage medium for a simulated run.
type Media = testbed.Media

// Storage media matching the paper's testbed devices.
const (
	HDD = testbed.HDD
	SSD = testbed.SSD
)

// Storage describes the storage stack for a simulated run.
type Storage struct {
	// Media is the device model (HDD or SSD).
	Media Media

	// Servers selects the stack: 0 means a direct-attached local file
	// system; n ≥ 1 means a PVFS-like parallel file system with n I/O
	// servers on a Gigabit fabric.
	Servers int

	// SharedFile, for cluster stacks, stripes one shared file across all
	// servers and gives each process its own segment (IOR style). When
	// false, each process gets its own file pinned to one server (the
	// paper's "pure" concurrency setup).
	SharedFile bool

	// FaultEvery, when nonzero on a local stack, fails every Nth device
	// access after it has consumed its full service time — the paper's
	// §III.A non-successful accesses, which still count in B.
	FaultEvery uint64

	// FaultRate, when positive, degrades the whole stack with a
	// seed-deterministic fault plan of that intensity (per-access device
	// fault probability; stragglers, throughput degradation, network
	// drops/delays, and server fail/slow/death scale with it — see
	// internal/faults.Profile). Cluster stacks also enable the client
	// recovery policy: per-RPC timeouts, capped exponential backoff with
	// jitter, and failover to replica servers. Local stacks inject
	// device-layer faults only, surfacing them as application-visible
	// errors that still count in B.
	FaultRate float64

	// ClientCacheBytes, when positive on a cluster stack, layers a
	// shared client-side page cache in front of every client: re-read
	// pages are served at memory speed without touching the fabric or
	// the servers. Zero leaves the request path exactly as before.
	ClientCacheBytes int64

	// ClientCacheReadAhead is the client cache's sequential read-ahead
	// window in bytes (0 = no read-ahead). Only meaningful when
	// ClientCacheBytes is positive.
	ClientCacheReadAhead int64
}

// clientCache translates the public cache knobs into the testbed's
// cache config.
func (s Storage) clientCache() ioreq.CacheConfig {
	return ioreq.CacheConfig{CapacityBytes: s.ClientCacheBytes, ReadAhead: s.ClientCacheReadAhead}
}

// ParseStorage interprets the command-line stack names hdd, ssd, hddxN
// and ssdxN: a local disk, or a parallel file system striping one
// shared file over N servers.
func ParseStorage(s string) (Storage, error) {
	media := HDD
	rest := s
	switch {
	case strings.HasPrefix(s, "hdd"):
		rest = strings.TrimPrefix(s, "hdd")
	case strings.HasPrefix(s, "ssd"):
		media = SSD
		rest = strings.TrimPrefix(s, "ssd")
	default:
		return Storage{}, fmt.Errorf("unknown stack %q (hdd, ssd, hddxN, ssdxN)", s)
	}
	if rest == "" {
		return Storage{Media: media}, nil
	}
	if !strings.HasPrefix(rest, "x") {
		return Storage{}, fmt.Errorf("unknown stack %q (hdd, ssd, hddxN, ssdxN)", s)
	}
	n, err := strconv.Atoi(rest[1:])
	if err != nil || n < 1 {
		return Storage{}, fmt.Errorf("bad server count in %q", s)
	}
	return Storage{Media: media, Servers: n, SharedFile: true}, nil
}

// RunConfig carries the common knobs of a simulated run.
type RunConfig struct {
	Storage Storage

	// Seed makes runs reproducible; equal seeds give identical results.
	Seed int64

	// Observe, when non-nil, attaches the observability subsystem to the
	// run: metrics registry, time-series sampler, and (per the options)
	// Chrome trace-event collection. It never changes the simulated
	// timeline — an observed run measures exactly what an unobserved one
	// does. The collected data is returned in RunReport.Obs.
	Observe *ObserveOptions
}

// RunReport is everything measured from one simulated run.
type RunReport struct {
	// Metrics holds the run's measurements; use its IOPS, Bandwidth,
	// ARPT, and BPS methods for the four metric values.
	Metrics Metrics

	// Records is the gathered application-access trace.
	Records []Record

	// Errors counts failed application accesses (still included in B).
	Errors int

	// Obs is the run's observability data (metrics registry, sampler
	// series, Chrome trace buffer); nil unless RunConfig.Observe was set.
	Obs *Observer

	// Attribution is the critical-path profiler's decomposition of the
	// run's overlapped time T into per-layer blame; nil unless
	// ObserveOptions.Attribution or WindowEvery was set.
	Attribution *Attribution
}

// SimulateSequentialRead runs an IOzone/IOR-style workload: procs
// processes each sequentially read bytesPerProc bytes in recordSize
// records.
func SimulateSequentialRead(cfg RunConfig, procs int, bytesPerProc, recordSize int64) (RunReport, error) {
	w := workload.SeqRead{
		Label:           "seqread",
		Processes:       procs,
		BytesPerProcess: bytesPerProc,
		RecordSize:      recordSize,
	}
	if cfg.Storage.Servers > 0 && cfg.Storage.SharedFile {
		w.UseMPIIO = true
		w.StartOffset = func(pid int) int64 { return int64(pid) * bytesPerProc }
	}
	return simulate(cfg, procs, int64(procs)*bytesPerProc, bytesPerProc, w)
}

// SimulateNoncontiguousRead runs an HPIO-style workload: each process
// reads regionCount regions of regionSize bytes separated by spacing
// bytes of hole through the MPI-IO layer, with or without data sieving.
func SimulateNoncontiguousRead(cfg RunConfig, procs, regionCount int, regionSize, spacing int64, sieving bool) (RunReport, error) {
	w := workload.Noncontig{
		Label:          "noncontig",
		Processes:      procs,
		RegionCount:    regionCount,
		RegionSize:     regionSize,
		RegionSpacing:  spacing,
		RegionsPerCall: 1024,
		Sieving:        sieving,
	}
	perProc := w.Span() + w.RegionSpacing
	cfg.Storage.SharedFile = cfg.Storage.Servers > 0 // region bases are per-process segments
	return simulate(cfg, procs, int64(procs)*perProc, perProc, w)
}

// AppSpec describes one application in a multi-application simulation.
type AppSpec struct {
	Name            string
	Processes       int
	BytesPerProcess int64
	RecordSize      int64

	// ComputePerOp inserts think time after each record, letting apps
	// with different I/O intensity share the system.
	ComputePerOp Time
}

// SimulateConcurrentApps runs several applications concurrently on one
// I/O system and records all of them, the paper's multi-application
// case (§III.B step 1: "If the I/O system services more than one
// application concurrently, we record the I/O access information of all
// the applications"). It returns the combined report — B, T, and the
// metrics over every application's accesses — plus one report per
// application.
//
// Process IDs are globally unique across applications. Each process
// gets its own file; on a cluster each file is striped over all servers.
// MovedBytes in every report is the system-wide total: file-system-level
// movement is not attributable to one application, which is exactly why
// the paper gathers a global collection.
func SimulateConcurrentApps(cfg RunConfig, apps ...AppSpec) (combined RunReport, perApp []RunReport, err error) {
	if len(apps) == 0 {
		return RunReport{}, nil, fmt.Errorf("bps: no applications given")
	}
	e := sim.NewEngine(cfg.Seed)
	ob := attachObserver(e, cfg)

	// Shared infrastructure.
	var cluster *pfs.Cluster
	var localFS *fsim.FileSystem
	if cfg.Storage.Servers > 0 {
		cluster, _ = testbed.NewCluster(e, testbed.ClusterSpec{
			Servers: cfg.Storage.Servers,
			Media:   cfg.Storage.Media,
			Clients: 0,
			Faults:  faultPlan(cfg),
		})
	} else {
		localFS = fsim.New(localDevice(e, cfg), fsim.Config{})
	}
	moved := func() int64 {
		if cluster != nil {
			return cluster.Moved()
		}
		return localFS.Moved()
	}

	var pendings []*workload.Pending
	firstPID := int64(0)
	for ai, app := range apps {
		if app.Processes < 1 || app.BytesPerProcess <= 0 || app.RecordSize <= 0 {
			return RunReport{}, nil, fmt.Errorf("bps: app %q: processes, bytes and record size must be positive", app.Name)
		}
		env, err := appEnv(e, cluster, localFS, ai, app)
		if err != nil {
			return RunReport{}, nil, fmt.Errorf("bps: app %q: %w", app.Name, err)
		}
		w := workload.SeqRead{
			Label:           app.Name,
			Processes:       app.Processes,
			BytesPerProcess: app.BytesPerProcess,
			RecordSize:      app.RecordSize,
			ComputePerOp:    app.ComputePerOp,
			FirstPID:        firstPID,
		}
		firstPID += int64(app.Processes)
		pend, err := w.Start(e, env)
		if err != nil {
			return RunReport{}, nil, fmt.Errorf("bps: app %q: %w", app.Name, err)
		}
		pendings = append(pendings, pend)
	}
	if err := e.Run(); err != nil {
		return RunReport{}, nil, fmt.Errorf("bps: simulation: %w", err)
	}
	e.Shutdown()

	var allRecords []Record
	var errs int
	for _, pend := range pendings {
		res := pend.Result()
		perApp = append(perApp, RunReport{
			Metrics: core.Compute(res.Trace, moved(), res.ExecTime),
			Records: res.Trace.Records(),
			Errors:  res.Errors,
		})
		allRecords = append(allRecords, res.Trace.Records()...)
		errs += res.Errors
	}
	ob.FinishRun(allRecords)
	combined = RunReport{
		Metrics:     ComputeMetrics(allRecords, moved(), e.Now()),
		Records:     allRecords,
		Errors:      errs,
		Obs:         ob,
		Attribution: ob.Attribution(),
	}
	return combined, perApp, nil
}

// appEnv builds application ai's private files and clients on the
// shared infrastructure.
func appEnv(e *sim.Engine, cluster *pfs.Cluster, localFS *fsim.FileSystem, ai int, app AppSpec) (workload.Env, error) {
	if cluster != nil {
		env := &workload.ClusterEnv{Cluster: cluster}
		for i := 0; i < app.Processes; i++ {
			f, err := cluster.Create(fmt.Sprintf("app%d.file%d", ai, i), app.BytesPerProcess, cluster.DefaultLayout())
			if err != nil {
				return nil, err
			}
			env.Files = append(env.Files, f)
			env.Clients = append(env.Clients, cluster.NewClient(fmt.Sprintf("app%d.cn%d", ai, i)))
		}
		return env, nil
	}
	env := &workload.LocalEnv{FS: localFS}
	for i := 0; i < app.Processes; i++ {
		f, err := localFS.Create(fmt.Sprintf("app%d.file%d", ai, i), app.BytesPerProcess)
		if err != nil {
			return nil, err
		}
		env.Files = append(env.Files, f)
	}
	return env, nil
}

// faultPlan derives the run's fault plan from the public FaultRate
// knob. The plan seed is a pure function of the run seed, so two runs
// with equal configs inject identical fault patterns; a zero rate
// yields a disabled plan that changes nothing.
func faultPlan(cfg RunConfig) faults.Config {
	return faults.Profile(experiments.DeriveSeed(cfg.Seed, "bps-fault-plan", "run"), cfg.Storage.FaultRate)
}

// localDevice builds a local-stack device with the configured fault
// wrappers: the deterministic every-Nth injector (FaultEvery) and/or
// the seeded plan's device faults (FaultRate). With both knobs zero it
// returns the bare device and draws nothing.
func localDevice(e *sim.Engine, cfg RunConfig) device.Device {
	dev := testbed.NewDevice(e, cfg.Storage.Media)
	if cfg.Storage.FaultEvery > 0 {
		dev = faults.NewEveryNth(dev, cfg.Storage.FaultEvery)
	}
	return faults.WrapDevice(e, dev, faultPlan(cfg), "local."+cfg.Storage.Media.String())
}

// simulate builds the configured stack on a fresh engine and runs w.
func simulate(cfg RunConfig, procs int, totalBytes, perProcBytes int64, w workload.Runner) (RunReport, error) {
	if procs < 1 {
		return RunReport{}, fmt.Errorf("bps: procs %d < 1", procs)
	}
	e := sim.NewEngine(cfg.Seed)
	ob := attachObserver(e, cfg)
	var env workload.Env
	var err error
	switch {
	case cfg.Storage.Servers == 0:
		env, err = testbed.NewLocalEnvOn(e, localDevice(e, cfg), procs, perProcBytes)
	case cfg.Storage.SharedFile:
		env, err = testbed.NewSharedFileEnv(e, testbed.ClusterSpec{
			Servers:     cfg.Storage.Servers,
			Media:       cfg.Storage.Media,
			Clients:     procs,
			Faults:      faultPlan(cfg),
			ClientCache: cfg.Storage.clientCache(),
		}, totalBytes)
	default:
		env, err = testbed.NewPinnedFilesEnv(e, testbed.ClusterSpec{
			Servers:     cfg.Storage.Servers,
			Media:       cfg.Storage.Media,
			Clients:     procs,
			Faults:      faultPlan(cfg),
			ClientCache: cfg.Storage.clientCache(),
		}, perProcBytes)
	}
	if err != nil {
		return RunReport{}, fmt.Errorf("bps: building storage: %w", err)
	}
	res, err := w.Run(e, env)
	if err != nil {
		return RunReport{}, fmt.Errorf("bps: running workload: %w", err)
	}
	e.Shutdown()
	ob.FinishRun(res.Trace.Records())
	return RunReport{
		Metrics:     core.Compute(res.Trace, res.Moved, res.ExecTime),
		Records:     res.Trace.Records(),
		Errors:      res.Errors,
		Obs:         ob,
		Attribution: ob.Attribution(),
	}, nil
}

// ReplayTrace re-issues a recorded trace (from any source: a prior
// simulation, iogen, or imported blkparse output) against the configured
// storage stack, returning what the same access pattern would have
// measured there. Sizes, per-process ordering, concurrency structure,
// and think gaps are preserved; physical placement is synthesized
// sequentially per process because the paper's 32-byte record carries no
// offsets.
func ReplayTrace(cfg RunConfig, records []Record) (RunReport, error) {
	if len(records) == 0 {
		return RunReport{}, fmt.Errorf("bps: empty trace")
	}
	w := workload.Replay{Label: "replay", Records: records}
	sizes := w.PIDBytes()
	pids := make([]int64, 0, len(sizes))
	for pid := range sizes {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	fileSizes := make([]int64, len(pids))
	for slot, pid := range pids {
		fileSizes[slot] = sizes[pid]
	}
	return replayOn(cfg, w, fileSizes)
}

// ReplayAccesses re-issues an offset-aware access stream — typically
// reconstructed from an ingested Darshan-style log (see ReadLog) —
// against the configured storage stack. Unlike ReplayTrace, accesses
// keep their recorded operations, offsets, and file separation: the env
// gets one file per access slot, sized to the largest offset reached.
func ReplayAccesses(cfg RunConfig, accs []workload.Access) (RunReport, error) {
	if len(accs) == 0 {
		return RunReport{}, fmt.Errorf("bps: empty access stream")
	}
	w := workload.ReplayIO{Label: "replay", Accesses: accs}
	return replayOn(cfg, w, w.SlotExtents())
}

// replayOn builds a replay env with one file per fileSizes entry and
// runs w on it.
func replayOn(cfg RunConfig, w workload.Runner, fileSizes []int64) (RunReport, error) {
	e := sim.NewEngine(cfg.Seed)
	ob := attachObserver(e, cfg)
	spec := testbed.ClusterSpec{
		Servers: cfg.Storage.Servers,
		Media:   cfg.Storage.Media,
		Faults:  faultPlan(cfg),
	}
	var dev device.Device
	if spec.Servers == 0 {
		dev = localDevice(e, cfg)
	}
	env, err := testbed.NewFilesEnv(e, spec, dev, "replay", fileSizes)
	if err != nil {
		return RunReport{}, fmt.Errorf("bps: replay: %w", err)
	}
	res, err := w.Run(e, env)
	if err != nil {
		return RunReport{}, fmt.Errorf("bps: replay: %w", err)
	}
	e.Shutdown()
	ob.FinishRun(res.Trace.Records())
	return RunReport{
		Metrics:     core.Compute(res.Trace, res.Moved, res.ExecTime),
		Records:     res.Trace.Records(),
		Errors:      res.Errors,
		Obs:         ob,
		Attribution: ob.Attribution(),
	}, nil
}
