package ioreq

import (
	"runtime"
	"testing"
)

// benchLRUKeys is the resident key count of the LRU benchmarks and
// allocation pins: large enough that the index spans many buckets.
const benchLRUKeys = 1 << 16

// fullLRU returns an LRU of benchLRUKeys capacity holding keys
// 0..benchLRUKeys-1, key 0 least recent.
func fullLRU() *LRU[int64] {
	c := NewLRU[int64](benchLRUKeys)
	for k := int64(0); k < benchLRUKeys; k++ {
		c.Insert(k)
	}
	return c
}

// TestLRUSteadyStateAllocs pins the allocation-free hot paths: once the
// slab and index have grown, no operation allocates, including a refill
// after Reset up to the previous high-water mark.
func TestLRUSteadyStateAllocs(t *testing.T) {
	c := fullLRU()
	next := int64(benchLRUKeys)
	probe := int64(0)
	cases := []struct {
		name string
		runs int
		f    func()
	}{
		{"insert-evict", 10000, func() { c.Insert(next); next++ }},
		{"lookup-hit", 10000, func() { c.Lookup(next - 1 - probe%benchLRUKeys); probe++ }},
		{"lookup-miss", 10000, func() { c.Lookup(-1 - probe); probe++ }},
		{"contains", 10000, func() { c.Contains(next - 1 - probe%benchLRUKeys); probe++ }},
		{"reset-refill", 20, func() {
			c.Reset()
			for k := int64(0); k < benchLRUKeys; k++ {
				c.Insert(k)
			}
		}},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(tc.runs, tc.f); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, got)
		}
	}
}

// TestLRULazyMemory pins that capacity is a bound, not a preallocation:
// a huge cache holding ten keys costs bytes, not gigabytes.
func TestLRULazyMemory(t *testing.T) {
	var before, after runtime.MemStats
	best := ^uint64(0)
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&before)
		c := NewLRU[int64](1 << 40)
		for k := int64(0); k < 10; k++ {
			c.Insert(k)
		}
		runtime.ReadMemStats(&after)
		if c.Len() != 10 {
			t.Fatalf("Len = %d, want 10", c.Len())
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best >= 4<<10 {
		t.Fatalf("NewLRU(1<<40) plus 10 inserts allocated %d bytes, want < 4 KiB", best)
	}
}

// BenchmarkLRUInsertEvict measures the fsim steady state: a full cache
// taking a new page, evicting its least recent one.
func BenchmarkLRUInsertEvict(b *testing.B) {
	c := fullLRU()
	next := int64(benchLRUKeys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(next)
		next++
	}
}

// BenchmarkLRULookupHit measures a cache hit, cycling through every
// resident key so each lookup moves a node to the front.
func BenchmarkLRULookupHit(b *testing.B) {
	c := fullLRU()
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(int64(i % benchLRUKeys)) {
			hits++
		}
	}
	if hits != b.N {
		b.Fatalf("%d of %d lookups hit", hits, b.N)
	}
}
