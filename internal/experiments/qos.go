package experiments

import (
	"fmt"

	"bps/internal/obs"
	"bps/internal/qos"
	"bps/internal/sim"
	"bps/internal/testbed"
)

// QoSFigureID names the multi-tenant QoS figure: tenant A's BPS with
// and without an interfering tenant B, with and without the admission
// controller throttling B to defend A's floor. Like the other custom
// figures it is routed through Suite.Figure but kept out of FigureIDs,
// so the paper-reproduction outputs stay exactly as they were.
const QoSFigureID = "qos"

// Unscaled per-process volumes: tenant A streams large records, tenant
// B needles the same disks with small ones.
const (
	qosABytes = 1536 << 20
	qosBBytes = 128 << 20
)

// qosTenantA is the protected streaming tenant.
func qosTenantA(bytes int64, floor float64) qos.TenantSpec {
	return qos.TenantSpec{
		Tenant:          qos.Tenant{Name: "tenantA", Priority: 1, BPSFloor: floor},
		Processes:       2,
		BytesPerProcess: bytes,
		RecordSize:      1 << 20,
	}
}

// qosTenantB is the low-priority interfering tenant.
func qosTenantB(bytes int64) qos.TenantSpec {
	return qos.TenantSpec{
		Tenant:          qos.Tenant{Name: "tenantB", Priority: 0},
		Processes:       4,
		BytesPerProcess: bytes,
		RecordSize:      4 << 10,
	}
}

// qosRunSpec is the figure's shared stack: four HDD servers with server
// caching off, so tenant interference reaches the disks instead of
// being absorbed by server readahead.
func qosRunSpec(q qos.Config, tenants ...qos.TenantSpec) qos.RunSpec {
	return qos.RunSpec{Servers: 4, Media: testbed.HDD, ServerCache: -1, QoS: q, Tenants: tenants}
}

// runQoSPoint executes one multi-tenant run on a fresh engine — the
// qos-flavored sibling of runOne, returning the full qos.Result so the
// sweep can read per-tenant outcomes.
func runQoSPoint(seed int64, label string, observe *obs.Options, spec qos.RunSpec) (qos.Result, *Observation, error) {
	e := sim.NewEngine(seed)
	var ob *obs.Observer
	if observe != nil {
		ob = obs.Attach(e, *observe)
	}
	res, err := qos.Run(e, spec)
	if err != nil {
		return qos.Result{}, nil, fmt.Errorf("run %s: %w", label, err)
	}
	var o *Observation
	if ob != nil {
		ob.FinishRun(res.Records)
		o = &Observation{Label: label, Obs: ob}
	}
	return res, o, nil
}

// qosPoint converts one run into the figure's point: the metrics are
// tenant A's (the figure plots the protected tenant's BPS), the error
// count is the whole run's, and Aux carries tenant B's delivery plus
// the controller's counters.
func qosPoint(label string, res qos.Result, soloBPS float64) Point {
	a := res.Tenants[0]
	pt := Point{
		Label:   label,
		Metrics: a.Metrics,
		Errors:  res.Errors,
		Aux: map[string]float64{
			"activations": float64(res.Report.Activations),
		},
	}
	if soloBPS > 0 {
		pt.Aux["a_vs_solo"] = a.Metrics.BPS() / soloBPS
	}
	for _, tr := range res.Report.Tenants {
		if tr.Name != "tenantB" {
			continue
		}
		pt.Aux["b_delayed"] = float64(tr.Delayed)
		pt.Aux["b_shed"] = float64(tr.Shed)
		pt.Aux["b_risk"] = tr.Score.Risk
	}
	for _, t := range res.Tenants {
		if t.Name == "tenantB" {
			pt.Aux["b_bps"] = t.Metrics.BPS()
		}
	}
	return pt
}

// qosSweep reproduces the QoS scenario comparison in two phases. Phase
// one runs tenant A alone — its solo baseline sets the protected floor
// at 90% of A's delivered block rate. Phase two runs A+B unthrottled
// and A+B throttled, fanned across the suite's workers; both phases
// derive every engine seed from (Seed, figure, label), so the result
// is bit-identical for any Parallel value.
func (s *Suite) qosSweep() ([]Point, error) {
	return s.sweep(QoSFigureID, func() ([]Point, error) {
		aBytes := s.params.scaled(qosABytes, 1<<20)
		bBytes := s.params.scaled(qosBBytes, 4<<10)

		solo, soloObs, err := runQoSPoint(
			DeriveSeed(s.params.Seed, QoSFigureID, "A-solo"), "A-solo",
			s.observe,
			qosRunSpec(qos.Config{}, qosTenantA(aBytes, 0)))
		if err != nil {
			return nil, err
		}
		soloA := solo.Tenants[0].Metrics
		soloBPS := soloA.BPS()
		floor := 0.0
		if soloA.ExecTime > 0 {
			// The control law's variable is the windowed delivered block
			// rate (blocks per wall second), so the floor is set on the
			// same scale: 90% of A's solo delivery rate.
			floor = 0.9 * float64(soloA.Blocks) / soloA.ExecTime.Seconds()
		}

		specs := []struct {
			label string
			spec  qos.RunSpec
		}{
			{"A+B", qosRunSpec(qos.Config{}, qosTenantA(aBytes, 0), qosTenantB(bBytes))},
			{"A+B-throttled", qosRunSpec(qos.Config{Enabled: true}, qosTenantA(aBytes, floor), qosTenantB(bBytes))},
		}
		results := make([]qos.Result, len(specs))
		observations := make([]*Observation, len(specs))
		err = ForEach(s.params.Parallel, len(specs), func(i int) error {
			sp := specs[i]
			res, ob, err := runQoSPoint(
				DeriveSeed(s.params.Seed, QoSFigureID, sp.label), sp.label,
				s.observe, sp.spec)
			if err != nil {
				return err
			}
			results[i] = res
			observations[i] = ob
			return nil
		})
		if err != nil {
			return nil, err
		}
		if s.observe != nil {
			s.lastObs = observations[len(observations)-1]
			if s.lastObs == nil {
				s.lastObs = soloObs
			}
		}
		pts := []Point{qosPoint("A-solo", solo, 0)}
		pts[0].Aux["a_vs_solo"] = 1
		pts[0].Aux["a_floor"] = floor
		for i, sp := range specs {
			pts = append(pts, qosPoint(sp.label, results[i], soloBPS))
		}
		return pts, nil
	})
}

// figQoS assembles the multi-tenant QoS figure.
func (s *Suite) figQoS() (Figure, error) {
	pts, err := s.qosSweep()
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     QoSFigureID,
		Title:  "QoS: tenant A's BPS against interference, with and without throttling",
		Notes:  "Two tenants share four HDD servers (server caching off). Expectation: tenant B's small-record traffic degrades A's BPS well past 20%; throttling B against A's floor (90% of solo delivery) restores A to within 10% of its solo baseline.",
		XLabel: "scenario",
		Points: pts,
	}, nil
}
