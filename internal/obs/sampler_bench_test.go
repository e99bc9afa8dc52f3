package obs

import (
	"fmt"
	"testing"

	"bps/internal/sim"
)

// BenchmarkSamplerTick measures one sampler pass over 80 sources (48
// counters, 32 probes: the shape of a bpsd batch's registry) with no
// new registration, so the pass reuses its sorted source list.
func BenchmarkSamplerTick(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 48; i++ {
		reg.Counter(fmt.Sprintf("layer%02d/requests", 47-i)).Add(int64(i))
	}
	for i := 0; i < 32; i++ {
		v := float64(i)
		reg.Probe(fmt.Sprintf("res%02d/utilization", 31-i), func() float64 { return v })
	}
	s := reg.StartSampler(sim.NewEngine(1), sim.Millisecond)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.sample(sim.Time(i+1) * sim.Millisecond)
	}
}
