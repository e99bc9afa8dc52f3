package bps

import (
	"fmt"

	"bps/internal/qos"
	"bps/internal/sim"
)

// QoSConfig configures the multi-tenant admission controller: the
// control window, the throttle's backoff/recovery multipliers, the
// minimum trickle rate, the token-bucket burst depth, and the shed
// threshold. The zero value disables QoS — tenants share the system
// unarbitrated, exactly as SimulateConcurrentApps runs applications.
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
// I/O system under the QoS admission controller: every tenant's
// requests carry the tenant identity through the trace stack, the
// controller tracks per-tenant windowed delivery, and — when q.Enabled
// and a tenant declares a BPSFloor — lower-priority tenants are
// token-bucket throttled (and eventually shed) whenever the protected
// tenant's windowed block rate falls below its floor.
//
// It returns the combined report over every tenant's accesses (the
// paper's global collection), one report per tenant in declaration
// order, and the controller's QoS summary. With q disabled the
// simulated timeline is identical to running the same workloads without
// the controller: admission control is timing-neutral until it acts.
func SimulateTenants(cfg RunConfig, q QoSConfig, tenants ...TenantSpec) (combined RunReport, perTenant []RunReport, report *QoSReport, err error) {
	if len(tenants) == 0 {
		return RunReport{}, nil, nil, fmt.Errorf("bps: no tenants given")
	}
	e := sim.NewEngine(cfg.Seed)
	ob := attachObserver(e, cfg)
	res, err := qos.Run(e, qos.RunSpec{
		Servers: cfg.Storage.Servers,
		Media:   cfg.Storage.Media,
		Faults:  faultPlan(cfg),
		QoS:     q,
		Tenants: tenants,
	})
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
	ob = finishObservation(ob, res.Records)
	combined = RunReport{
		Metrics:     res.Combined,
		Records:     res.Records,
		Errors:      res.Errors,
		Obs:         ob,
		Attribution: ob.Attribution(),
	}
	return combined, perTenant, res.Report, nil
}
