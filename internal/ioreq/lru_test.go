package ioreq

import (
	"math"
	"runtime"
	"testing"
)

// benchLRUKeys is the resident key count of the LRU benchmarks and
// allocation pins: large enough that the index spans many buckets.
const benchLRUKeys = 1 << 16

// fullLRU returns an LRU of benchLRUKeys capacity holding keys
// 0..benchLRUKeys-1, key 0 least recent, converted to the list as its
// first eviction would.
func fullLRU() *LRU {
	c := NewLRU(benchLRUKeys)
	for k := int64(0); k < benchLRUKeys; k++ {
		c.Insert(k)
	}
	c.listify()
	return c
}

// lruRunKeys is the run length of BenchmarkLRUSequentialRuns: a 256 KiB
// read in 4 KiB pages.
const lruRunKeys = 64

// sequentialRun is the fsim read pattern on a full cache: look up a run
// of lruRunKeys missing keys from next, then insert it, evicting the
// oldest run. It returns the next run's start.
func sequentialRun(c *LRU, next int64) int64 {
	for k := next; k < next+lruRunKeys; k++ {
		c.Lookup(k)
	}
	for k := next; k < next+lruRunKeys; k++ {
		c.Insert(k)
	}
	return next + lruRunKeys
}

// fillRun is the read pattern of a page cache that never fills: look up
// and insert a run of lruRunKeys missing keys from next, then look the
// run up again, as a re-read that hits. It returns the next run's start.
func fillRun(c *LRU, next int64) int64 {
	end := sequentialRun(c, next)
	for k := next; k < end; k++ {
		c.Lookup(k)
	}
	return end
}

// TestLRUSteadyStateAllocs pins the allocation-free hot paths: once the
// slabs and index have grown, no operation allocates, including a
// sequential run that recycles whole blocks, a fill after Reset that
// never evicts, and a refill after Reset that evicts again, converting
// its stamps to the list in the kept node slab.
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
		{"sequential-runs", 1000, func() { next = sequentialRun(c, next) }},
		{"fill-without-eviction", 20, func() {
			c.Reset()
			for k := int64(0); k < benchLRUKeys/2; k = fillRun(c, k) {
			}
		}},
		{"reset-refill", 20, func() {
			c.Reset()
			for k := int64(0); k < benchLRUKeys+lruRunKeys; k++ {
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
		c := NewLRU(1 << 40)
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

// TestLRUBytesPerKey pins the live heap of a cache holding 2^18 keys. A
// dense fill shares blocks between 16 consecutive keys; one key per
// block is the worst case, paying a whole block and a map entry per key.
// A cache that never filled keeps a 4-byte stamp per key in its blocks;
// the full ones are made to evict once, so they pay the 16-byte list
// node too.
func TestLRUBytesPerKey(t *testing.T) {
	const keys = 1 << 18
	for _, tc := range []struct {
		name     string
		capacity int64
		stride   int64
		limit    float64
	}{
		{"dense", keys, 1, 32},
		{"one-per-block", keys, lruBlockKeys, 160},
		{"dense-never-full", 4 * keys, 1, 10},
	} {
		best := math.Inf(1)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			c := NewLRU(tc.capacity)
			inserts := int64(keys)
			if tc.capacity == keys {
				inserts++ // one eviction
			}
			for k := int64(0); k < inserts; k++ {
				c.Insert(k * tc.stride)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			if c.Len() != keys || c.listed != (tc.capacity == keys) {
				t.Fatalf("%s: Len = %d, listed %v; want %d keys, listed only when full", tc.name, c.Len(), c.listed, keys)
			}
			runtime.KeepAlive(c)
			best = min(best, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/keys)
		}
		t.Logf("%s: %.1f B/key", tc.name, best)
		if best > tc.limit {
			t.Errorf("%s: %.1f heap bytes per resident key, want <= %v", tc.name, best, tc.limit)
		}
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

// BenchmarkLRUFillRuns measures the regime of most page caches, which
// never fill, one op per run: from an empty cache of twice benchLRUKeys
// capacity, look up lruRunKeys missing consecutive keys, insert them and
// look them up again, resetting the cache every benchLRUKeys keys.
func BenchmarkLRUFillRuns(b *testing.B) {
	c := NewLRU(2 * benchLRUKeys)
	next := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == benchLRUKeys {
			c.Reset()
			next = 0
		}
		next = fillRun(c, next)
	}
}

// BenchmarkLRUSequentialRuns measures the fsim read pattern, one op per
// run: on a full cache, look up lruRunKeys missing consecutive keys,
// then insert them, evicting the oldest run.
func BenchmarkLRUSequentialRuns(b *testing.B) {
	c := fullLRU()
	next := int64(benchLRUKeys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next = sequentialRun(c, next)
	}
}
