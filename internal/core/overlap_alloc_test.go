// Allocation counts of pooled scratch are only meaningful without the
// race detector: under it, sync.Pool drops a random share of Puts.

//go:build !race

package core

import (
	"testing"

	"bps/internal/sim"
	"bps/internal/trace"
)

// TestOverlapTimeScratchAllocs pins OverlapTime's pooled scratch: a
// call the pooled buffer is too small for grows it to the record count
// in one allocation, not append by append, and a warm call allocates
// nothing.
func TestOverlapTimeScratchAllocs(t *testing.T) {
	recs := make([]trace.Record, 1<<15)
	for i := range recs {
		recs[i] = rec(sim.Time(i), sim.Time(i+2))
	}
	n := 1 << 9
	if got := testing.AllocsPerRun(5, func() {
		n *= 2 // every call outgrows the scratch the previous one pooled
		OverlapTime(recs[:n])
	}); got != 1 {
		t.Errorf("outgrown scratch: %v allocs per call, want 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { OverlapTime(recs) }); got != 0 {
		t.Errorf("warm call: %v allocs per call, want 0", got)
	}
}
