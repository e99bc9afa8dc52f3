package bps

import (
	"fmt"

	"bps/internal/fsim"
	"bps/internal/qos"
	"bps/internal/sim"
	"bps/internal/testbed"
)

// QoSConfig configures the multi-tenant admission controller: the
// control window, the throttle's backoff/recovery multipliers, the
// minimum trickle rate, the token-bucket burst depth, and the shed
// threshold. The zero value disables QoS — tenants share the system
// unarbitrated: the paper's multi-application case.
type QoSConfig = qos.Config

// TenantSpec describes one tenant in a multi-tenant simulation: its
// identity and service contract (name, priority, optional protected
// BPS floor) plus its sequential workload.
type TenantSpec = qos.TenantSpec

// QoSTenant is a tenant's identity and contract (the embedded head of
// TenantSpec).
type QoSTenant = qos.Tenant

// QoSReport is the controller's end-of-run summary: per-tenant windowed
// metric series, throttle counters, and LASSi-style interference
// scores.
type QoSReport = qos.Report

// QoSTenantReport is one tenant's entry in a QoSReport.
type QoSTenantReport = qos.TenantReport

// ErrShed is the sentinel wrapped into accesses rejected by admission
// control while their tenant is in shed mode.
var ErrShed = qos.ErrShed

// SimulateTenants runs several tenants' workloads concurrently on one
// I/O system and records all of them. With a zero q this is the paper's
// multi-application case (§III.B step 1: "If the I/O system services
// more than one application concurrently, we record the I/O access
// information of all the applications"): every tenant is one
// application, and admission control only observes, so the timeline is
// identical to running the same workloads without the controller. When
// q.Enabled and a tenant declares a BPSFloor, lower-priority tenants
// are token-bucket throttled (and eventually shed) whenever the
// protected tenant's windowed block rate falls below its floor.
//
// It returns the combined report over every tenant's accesses (the
// paper's global collection), one report per tenant in declaration
// order, and the controller's QoS summary. Process IDs are globally
// unique across tenants, and each process gets its own file; on a
// cluster each file is striped over all servers. MovedBytes in every
// report is the system-wide total: file-system-level movement is not
// attributable to one tenant, which is exactly why the paper gathers a
// global collection.
func SimulateTenants(cfg RunConfig, q QoSConfig, tenants ...TenantSpec) (combined RunReport, perTenant []RunReport, report *QoSReport, err error) {
	if len(tenants) == 0 {
		return RunReport{}, nil, nil, fmt.Errorf("bps: no tenants given")
	}
	e := sim.NewEngine(cfg.Seed)
	ob := attachObserver(e, cfg)
	spec := qos.RunSpec{QoS: q, Tenants: tenants}
	if cfg.Storage.Servers > 0 {
		spec.Cluster, _ = testbed.NewCluster(e, testbed.ClusterSpec{
			Servers: cfg.Storage.Servers,
			Media:   cfg.Storage.Media,
			Faults:  faultPlan(cfg),
		})
	} else {
		spec.LocalFS = fsim.New(localDevice(e, cfg), fsim.Config{})
	}
	res, err := qos.Run(e, spec)
	if err != nil {
		return RunReport{}, nil, nil, fmt.Errorf("bps: %w", err)
	}
	for _, t := range res.Tenants {
		perTenant = append(perTenant, RunReport{
			Metrics: t.Metrics,
			Records: t.Records,
			Errors:  t.Errors,
		})
	}
	ob.FinishRun(res.Records)
	combined = RunReport{
		Metrics:     res.Combined,
		Records:     res.Records,
		Errors:      res.Errors,
		Obs:         ob,
		Attribution: ob.Attribution(),
	}
	return combined, perTenant, res.Report, nil
}
