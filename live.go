package bps

import (
	"fmt"

	"bps/internal/backend"
	"bps/internal/clock"
	"bps/internal/live"
	"bps/internal/sim"
)

// LiveConfig parameterizes a live measurement run: the same access
// streams a simulation replays (ReplayAccesses), but issued for real —
// by concurrent OS goroutines against an actual filesystem — through
// the same middleware chain and metric stack. The resulting RunReport
// is shape-identical to a simulated one, so every report writer and
// figure consumer works on live data unchanged.
type LiveConfig struct {
	// Dir, when non-empty, measures a real directory tree rooted there
	// (the os backend, pread/pwrite on real files). Empty selects the
	// in-memory backend (memfs): os-identical semantics, no disk.
	Dir string

	// Direct opens data files with O_DIRECT on the os backend where the
	// platform supports it (Linux), bypassing the page cache so the
	// numbers reflect device speeds. Ignored by the memory backend.
	Direct bool

	// Wall selects wall-clock timing: timestamps are real elapsed
	// nanoseconds and recorded think time paces for real. When false,
	// each worker runs on a deterministic virtual clock lane advanced by
	// the cost model below — reproducible byte-identical results, the
	// mode the pinned livemem figure uses.
	Wall bool

	// CostPerOp and CostBytesPerSec form the virtual-mode service-time
	// model (ignored under Wall). Zero values default to 100 µs per op
	// and 200 MB/s, so casual virtual runs produce non-degenerate
	// windows.
	CostPerOp       Time
	CostBytesPerSec float64

	// WindowEvery sizes the streaming BPS/IOPS/BW/ARPT windows
	// (default 10 ms).
	WindowEvery Time

	// Seed derives per-worker RNG streams; equal seeds give identical
	// virtual-mode results.
	Seed int64

	// Label names the run in errors.
	Label string
}

// backendFor builds the configured backend.
func (cfg LiveConfig) backendFor() backend.FS {
	if cfg.Dir != "" {
		return backend.NewOSFS(cfg.Dir, cfg.Direct)
	}
	return backend.NewMemFS()
}

// liveConfig translates the public knobs into the driver's config.
func (cfg LiveConfig) liveConfig() live.Config {
	mode := live.Virtual
	if cfg.Wall {
		mode = live.Wall
	}
	cost := clock.CostModel{PerOp: cfg.CostPerOp, BytesPerSec: cfg.CostBytesPerSec}
	if cost.PerOp == 0 && cost.BytesPerSec == 0 {
		cost = clock.CostModel{PerOp: 100 * sim.Microsecond, BytesPerSec: 200e6}
	}
	label := cfg.Label
	if label == "" {
		label = "live"
	}
	return live.Config{
		FS:          cfg.backendFor(),
		Mode:        mode,
		Cost:        cost,
		WindowEvery: cfg.WindowEvery,
		Seed:        cfg.Seed,
		Label:       label,
	}
}

// MeasureAccesses issues an offset-aware access stream — generated
// (iogen), ingested from a Darshan-style log (ReadLogs), or handwritten —
// against a real backend and measures it: one concurrent worker per
// recorded process, recorded think time preserved, application-required
// blocks and actually-moved bytes counted exactly as in a simulation.
// RunReport.Obs is nil (live runs have no engine tracer); Attribution
// carries the windowed metric series but no per-layer blame.
func MeasureAccesses(cfg LiveConfig, accs []Access) (RunReport, error) {
	if len(accs) == 0 {
		return RunReport{}, fmt.Errorf("bps: empty access stream")
	}
	rep, err := live.Run(cfg.liveConfig(), accs)
	if err != nil {
		return RunReport{}, fmt.Errorf("bps: live: %w", err)
	}
	return RunReport{
		Metrics:     rep.Metrics,
		Records:     rep.Records,
		Errors:      rep.Errors,
		Attribution: rep.Attribution,
	}, nil
}
