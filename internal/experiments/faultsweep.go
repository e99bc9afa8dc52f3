package experiments

import (
	"strconv"

	"bps/internal/faults"
	"bps/internal/sim"
	"bps/internal/testbed"
	"bps/internal/workload"
)

// FaultFigureID names the FaultSweep figure: the BPS-under-degradation
// experiment that none of the paper's figures cover. It is routed
// through Suite.Figure like any CC figure (so RunRobustness works on
// it) but kept out of FigureIDs/ExtensionIDs: the paper-reproduction
// outputs stay exactly as they were.
const FaultFigureID = "faults"

// DefaultFaultRates is the FaultSweep x-axis: the per-access device
// fault probability, from healthy to heavily degraded, roughly
// quadrupling per point.
var DefaultFaultRates = []float64{0, 0.001, 0.004, 0.016, 0.064}

// faultsFileBytes is the sweep's unscaled shared-file volume. Smaller
// than the paper sets: each point re-runs the same workload and only
// the fault rate moves, so the shape needs fewer bytes to emerge.
const faultsFileBytes = 8 << 30

// faultRateLabel formats a rate as a sweep label ("r0", "r0.004").
func faultRateLabel(rate float64) string {
	return "r" + strconv.FormatFloat(rate, 'g', -1, 64)
}

// faultSweep runs the FaultSweep: an IOR-style striped shared-file read
// on a 4-server cluster, repeated while the fault plan's intensity
// rises. Every layer degrades together (device errors/stragglers/
// degradation, link drops/delays, server fail/slow windows and death),
// and the client rides through on the recovery policy — so execution
// time climbs with the rate while the application's block demand B is
// constant. BPS = B/T must therefore keep the correct (negative)
// correlation with execution time; file-system bandwidth gets credit
// for every retried and re-moved byte, which is exactly where it
// stops tracking the application.
func (s *Suite) faultSweep() ([]Point, error) {
	return s.sweep("faults", func() ([]Point, error) {
		const (
			record  = 256 << 10
			procs   = 4
			servers = 4
		)
		perProc := s.params.scaled(faultsFileBytes/procs, record)
		fileSize := perProc * procs
		w := workload.SeqRead{
			Label:           "ior-faults",
			Processes:       procs,
			BytesPerProcess: perProc,
			RecordSize:      record,
			UseMPIIO:        true,
			StartOffset:     func(pid int) int64 { return int64(pid) * perProc },
		}
		rates := s.params.FaultRates
		if rates == nil {
			rates = DefaultFaultRates
		}
		var specs []runSpec
		for _, rate := range rates {
			rate := rate
			label := faultRateLabel(rate)
			// The plan seed derives from (base seed, plan stream, label)
			// with the same scheme as the engine seed, so each sweep
			// point's fault pattern is a pure function of stable
			// identifiers — bit-identical across worker counts.
			planSeed := DeriveSeed(s.params.Seed, "faultsweep-plan", label)
			specs = append(specs, runSpec{label: label, build: func(e *sim.Engine) (workload.Env, workload.Runner, error) {
				env, err := testbed.NewSharedFileEnv(e, testbed.ClusterSpec{
					Servers: servers,
					Media:   testbed.HDD,
					Clients: procs,
					Faults:  faults.Profile(planSeed, rate),
				}, fileSize)
				return env, w, err
			}})
		}
		return s.runSweep("faults", specs)
	})
}

// figFaults assembles the FaultSweep figure.
func (s *Suite) figFaults() (Figure, error) {
	pts, err := s.faultSweep()
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     FaultFigureID,
		Title:  "FaultSweep: normalized CC under rising fault injection",
		Notes:  "Faults at device, network, and server layers with client-side retry/failover; expectation: BPS keeps the correct sign while BW is inflated by retry re-movement.",
		XLabel: "injected fault rate",
		Points: pts,
		CC:     ccTable(FaultFigureID, pts),
	}, nil
}
