package qos

import (
	"fmt"

	"bps/internal/core"
	"bps/internal/faults"
	"bps/internal/fsim"
	"bps/internal/ioreq"
	"bps/internal/pfs"
	"bps/internal/sim"
	"bps/internal/testbed"
	"bps/internal/trace"
	"bps/internal/workload"
)

// TenantSpec is one tenant's identity, contract, and workload in a
// multi-tenant run: a SeqRead-style sequential workload owned by the
// tenant, admitted through the controller's middleware.
type TenantSpec struct {
	Tenant

	Processes       int
	BytesPerProcess int64
	RecordSize      int64

	// Write performs writes instead of reads.
	Write bool

	// ComputePerOp inserts think time after each record.
	ComputePerOp sim.Time
}

// RunSpec describes one multi-tenant engine run.
type RunSpec struct {
	// Servers selects the stack: 0 = direct-attached local file system,
	// n ≥ 1 = PVFS-like cluster with n I/O servers.
	Servers int
	Media   testbed.Media

	// Faults, when enabled, degrades the stack with the given plan.
	Faults faults.Config

	// ServerCache overrides each I/O server's page-cache size (see
	// testbed.ClusterSpec.ServerCache): 0 keeps the testbed default,
	// negative disables server caching and readahead — the setting the
	// qos figure uses so tenant interference reaches the devices instead
	// of being absorbed by server readahead.
	ServerCache int64

	// QoS configures the admission controller.
	QoS Config

	// Tenants' workloads all start at time zero and share the stack.
	Tenants []TenantSpec
}

// TenantResult is one tenant's measured outcome.
type TenantResult struct {
	Name    string
	Metrics core.Metrics
	Records []trace.Record
	Errors  int // failed accesses, including sheds
}

// Result is everything measured from one multi-tenant run.
type Result struct {
	// Combined covers every tenant's accesses: B, T, and the four
	// metrics over the global collection, as the paper's multi-
	// application recording prescribes.
	Combined core.Metrics
	Records  []trace.Record
	Errors   int

	Tenants []TenantResult

	// Report is the controller's QoS summary (per-tenant windows,
	// throttle counters, interference scores). Non-nil even with QoS
	// disabled — the windows and scores are pure observations.
	Report *Report
}

// Run executes every tenant's workload concurrently on one I/O system
// built on e, with the QoS controller's admission middleware at the top
// of each tenant's pipeline. The engine must be fresh; Run drives it to
// completion and shuts it down.
func Run(e *sim.Engine, spec RunSpec) (Result, error) {
	if len(spec.Tenants) == 0 {
		return Result{}, fmt.Errorf("qos: no tenants given")
	}
	tenants := make([]Tenant, len(spec.Tenants))
	for i, t := range spec.Tenants {
		if t.Processes < 1 || t.BytesPerProcess <= 0 || t.RecordSize <= 0 {
			return Result{}, fmt.Errorf("qos: tenant %q: processes, bytes and record size must be positive", t.Name)
		}
		tenants[i] = t.Tenant
	}
	ctl, err := NewController(spec.QoS, tenants...)
	if err != nil {
		return Result{}, err
	}

	var cluster *pfs.Cluster
	var localFS *fsim.FileSystem
	if spec.Servers > 0 {
		cluster, _ = testbed.NewCluster(e, testbed.ClusterSpec{
			Servers:     spec.Servers,
			Media:       spec.Media,
			Clients:     0,
			Faults:      spec.Faults,
			ServerCache: spec.ServerCache,
		})
	} else {
		dev := faults.WrapDevice(e, testbed.NewDevice(e, spec.Media), spec.Faults, "local."+spec.Media.String())
		localFS = fsim.New(dev, fsim.Config{})
	}
	moved := func() int64 {
		if cluster != nil {
			return cluster.Moved()
		}
		return localFS.Moved()
	}

	var pendings []*workload.Pending
	firstPID := int64(0)
	for _, t := range spec.Tenants {
		env, err := tenantEnv(cluster, localFS, t, ctl.Middleware(t.Name))
		if err != nil {
			return Result{}, fmt.Errorf("qos: tenant %q: %w", t.Name, err)
		}
		w := workload.SeqRead{
			Label:           t.Name,
			Processes:       t.Processes,
			BytesPerProcess: t.BytesPerProcess,
			RecordSize:      t.RecordSize,
			Write:           t.Write,
			ComputePerOp:    t.ComputePerOp,
			FirstPID:        firstPID,
		}
		firstPID += int64(t.Processes)
		pend, err := w.Start(e, env)
		if err != nil {
			return Result{}, fmt.Errorf("qos: tenant %q: %w", t.Name, err)
		}
		pendings = append(pendings, pend)
	}
	if cluster != nil {
		cluster.FlushCaches()
	}
	if err := e.Run(); err != nil {
		return Result{}, fmt.Errorf("qos: simulation: %w", err)
	}
	e.Shutdown()

	res := Result{Report: ctl.Report()}
	for i, pend := range pendings {
		tr := pend.Result()
		res.Tenants = append(res.Tenants, TenantResult{
			Name:    spec.Tenants[i].Name,
			Metrics: core.Compute(tr.Trace, moved(), tr.ExecTime),
			Records: tr.Trace.Records(),
			Errors:  tr.Errors,
		})
		res.Records = append(res.Records, tr.Trace.Records()...)
		res.Errors += tr.Errors
	}
	res.Combined = core.Compute(trace.FromRecords(res.Records), moved(), e.Now())
	return res, nil
}

// tenantEnv builds tenant t's private files and clients on the shared
// infrastructure, with the tenant's admission middleware outermost.
func tenantEnv(cluster *pfs.Cluster, localFS *fsim.FileSystem, t TenantSpec, mw ioreq.Middleware) (workload.Env, error) {
	if cluster != nil {
		env := &workload.ClusterEnv{Cluster: cluster, Wrap: mw}
		for i := 0; i < t.Processes; i++ {
			f, err := cluster.Create(fmt.Sprintf("%s.file%d", t.Name, i), t.BytesPerProcess, cluster.DefaultLayout())
			if err != nil {
				return nil, err
			}
			env.Files = append(env.Files, f)
			env.Clients = append(env.Clients, cluster.NewClient(fmt.Sprintf("%s.cn%d", t.Name, i)))
		}
		return env, nil
	}
	env := &workload.LocalEnv{FS: localFS, Wrap: mw}
	for i := 0; i < t.Processes; i++ {
		f, err := localFS.Create(fmt.Sprintf("%s.file%d", t.Name, i), t.BytesPerProcess)
		if err != nil {
			return nil, err
		}
		env.Files = append(env.Files, f)
	}
	return env, nil
}
