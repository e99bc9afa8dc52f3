package workload

import (
	"fmt"
	"math/rand"

	"bps/internal/middleware"
	"bps/internal/sim"
	"bps/internal/trace"
)

// HopRead models applications with partial sequential locality: each
// process performs Hops bursts, each burst reading RecordsPerHop records
// of RecordSize sequentially from a pseudorandom (seeded, deterministic)
// hop offset. With client-side prefetching enabled, every hop strands
// the prefetched-but-unused tail of the readahead window — the
// prefetching analogue of data sieving's holes: extra data movement the
// application never required.
type HopRead struct {
	Label         string
	Processes     int
	Hops          int
	RecordsPerHop int
	RecordSize    int64

	// PrefetchWindow enables client-side readahead of this many bytes
	// (0 disables prefetching).
	PrefetchWindow int64

	// Seed drives the hop-offset sequence.
	Seed int64

	// FirstPID offsets the trace process IDs (see SeqRead.FirstPID).
	FirstPID int64
}

// RequiredBytes returns the application-required bytes per process.
func (w HopRead) RequiredBytes() int64 {
	return int64(w.Hops) * int64(w.RecordsPerHop) * w.RecordSize
}

// Start implements Starter.
func (w HopRead) Start(e *sim.Engine, env Env) (*Pending, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	pend := newPending(e, w.Label, env, w.Processes)
	for pid := 0; pid < w.Processes; pid++ {
		pid := pid
		col := trace.NewCollector(w.FirstPID + int64(pid))
		pend.collectors[pid] = col
		target := env.Target(pid)
		if w.PrefetchWindow > 0 {
			target = target.With(middleware.NewPrefetcher(target, w.PrefetchWindow))
		}
		rng := rand.New(rand.NewSource(w.Seed + int64(pid)))
		e.Spawn(fmt.Sprintf("%s.p%d", w.Label, pid), pend.track(func(p *sim.Proc) {
			io := middleware.NewPOSIX(target, col)
			burst := int64(w.RecordsPerHop) * w.RecordSize
			span := target.Size() - burst
			if span < 1 {
				span = 1
			}
			for h := 0; h < w.Hops; h++ {
				base := rng.Int63n(span)
				base -= base % w.RecordSize
				for r := 0; r < w.RecordsPerHop; r++ {
					if err := io.Read(p, base+int64(r)*w.RecordSize, w.RecordSize); err != nil {
						pend.errs[pid]++
					}
				}
			}
		}))
	}
	return pend, nil
}

// Run implements Runner.
func (w HopRead) Run(e *sim.Engine, env Env) (Result, error) {
	return runToCompletion(w, e, env)
}

func (w HopRead) validate() error {
	switch {
	case w.Processes < 1:
		return fmt.Errorf("workload %q: Processes %d < 1", w.Label, w.Processes)
	case w.Hops < 1:
		return fmt.Errorf("workload %q: Hops %d < 1", w.Label, w.Hops)
	case w.RecordsPerHop < 1:
		return fmt.Errorf("workload %q: RecordsPerHop %d < 1", w.Label, w.RecordsPerHop)
	case w.RecordSize <= 0:
		return fmt.Errorf("workload %q: RecordSize %d <= 0", w.Label, w.RecordSize)
	case w.PrefetchWindow < 0:
		return fmt.Errorf("workload %q: PrefetchWindow %d < 0", w.Label, w.PrefetchWindow)
	}
	return nil
}
