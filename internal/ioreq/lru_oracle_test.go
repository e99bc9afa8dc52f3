package ioreq

import (
	"math/rand"
	"slices"
	"testing"
)

// refLRU is the differential oracle for LRU: a slice ordered by recency,
// most recent first, searched linearly. It shares no code or data
// structure with the slab list, so agreement is evidence that the slab
// links and the index implement the same eviction order.
type refLRU[K comparable] struct {
	capacity     int
	keys         []K
	hits, misses uint64
}

// touch moves keys[i] to the front.
func (r *refLRU[K]) touch(i int) {
	k := r.keys[i]
	copy(r.keys[1:i+1], r.keys[:i])
	r.keys[0] = k
}

func (r *refLRU[K]) lookup(k K) bool {
	i := slices.Index(r.keys, k)
	if i < 0 {
		r.misses++
		return false
	}
	r.touch(i)
	r.hits++
	return true
}

func (r *refLRU[K]) insert(k K) {
	if i := slices.Index(r.keys, k); i >= 0 {
		r.touch(i)
		return
	}
	r.keys = slices.Insert(r.keys, 0, k)
	if len(r.keys) > r.capacity {
		r.keys = r.keys[:r.capacity]
	}
}

// lruOp is one operation of a checked sequence; key indexes the key
// universe of the run.
type lruOp struct {
	kind byte // opLookup, opContains, opInsert or opReset
	key  int
}

const (
	opLookup = iota
	opContains
	opInsert
	opReset
)

// recency walks the slab list from most to least recent, checking that
// every back link mirrors its forward link.
func (c *LRU[K]) recency(t *testing.T) []K {
	t.Helper()
	var keys []K
	prev := int32(0)
	for i := c.nodes[0].next; i != 0; i = c.nodes[i].next {
		if c.nodes[i].prev != prev {
			t.Fatalf("slot %d: prev %d, want %d", i, c.nodes[i].prev, prev)
		}
		if len(keys) > c.Len() {
			t.Fatal("recency list longer than Len: cycle")
		}
		keys = append(keys, c.nodes[i].key)
		prev = i
	}
	if c.nodes[0].prev != prev {
		t.Fatalf("sentinel prev %d, want tail %d", c.nodes[0].prev, prev)
	}
	return keys
}

// checkLRU replays ops on an LRU and on the oracle, comparing every
// return value, Len, Hits, Misses, the resident set and the recency
// order after each operation.
func checkLRU[K comparable](t *testing.T, capacity int64, ops []lruOp, key func(int) K) {
	t.Helper()
	c := NewLRU[K](capacity)
	ref := &refLRU[K]{capacity: int(capacity)}
	for n, op := range ops {
		k := key(op.key)
		switch op.kind {
		case opLookup:
			if got, want := c.Lookup(k), ref.lookup(k); got != want {
				t.Fatalf("op %d: Lookup(%v) = %v, oracle %v", n, k, got, want)
			}
		case opContains:
			if got, want := c.Contains(k), slices.Contains(ref.keys, k); got != want {
				t.Fatalf("op %d: Contains(%v) = %v, oracle %v", n, k, got, want)
			}
		case opInsert:
			c.Insert(k)
			ref.insert(k)
		case opReset:
			c.Reset()
			ref.keys = ref.keys[:0]
		}
		if c.Len() != len(ref.keys) || c.Hits() != ref.hits || c.Misses() != ref.misses {
			t.Fatalf("op %d (%d %v): len/hits/misses = %d/%d/%d, oracle %d/%d/%d", n, op.kind, k,
				c.Len(), c.Hits(), c.Misses(), len(ref.keys), ref.hits, ref.misses)
		}
		for _, rk := range ref.keys {
			if !c.Contains(rk) {
				t.Fatalf("op %d (%d %v): resident key %v missing", n, op.kind, k, rk)
			}
		}
		if got := c.recency(t); !slices.Equal(got, ref.keys) {
			t.Fatalf("op %d (%d %v): recency %v, oracle %v", n, op.kind, k, got, ref.keys)
		}
	}
}

// pageKeyOf spreads key numbers over three files, so equal page numbers
// in different files are distinct keys.
func pageKeyOf(n int) pageKey {
	return pageKey{file: [...]string{"a", "b", "c"}[n%3], page: int64(n / 3)}
}

// randomOps draws a sequence over a key universe about 1.5× the
// capacity, so runs mix hits, misses and evictions; a Reset lands about
// once per 500 operations.
func randomOps(rng *rand.Rand, capacity int64) []lruOp {
	universe := int(capacity)*3/2 + 2
	ops := make([]lruOp, max(2000, 4*int(capacity)))
	for i := range ops {
		ops[i].key = rng.Intn(universe)
		switch r := rng.Intn(500); {
		case r == 0:
			ops[i].kind = opReset
		case r < 200:
			ops[i].kind = opLookup
		case r < 300:
			ops[i].kind = opContains
		default:
			ops[i].kind = opInsert
		}
	}
	return ops
}

func TestLRUMatchesOracle(t *testing.T) {
	for _, capacity := range []int64{1, 2, 3, 17, 1024} {
		for seed := int64(1); seed <= 3; seed++ {
			ops := randomOps(rand.New(rand.NewSource(seed)), capacity)
			checkLRU(t, capacity, ops, func(n int) int64 { return int64(n) })
			checkLRU(t, capacity, ops, pageKeyOf)
		}
	}
}

// FuzzLRU decodes the first byte into a capacity of 1 to 32 and each
// following byte pair into an operation (inserts weighted 5 in 8) and a
// key, and holds LRU to the oracle for both int64 and pageKey keys.
func FuzzLRU(f *testing.F) {
	f.Add([]byte{1, 2, 1, 2, 2, 0, 1, 2, 3, 0, 2, 0, 1})
	f.Add([]byte{2, 2, 5, 2, 6, 0, 5, 2, 7, 1, 6, 0, 6, 3, 0, 2, 5})
	f.Add([]byte{16, 2, 0, 2, 1, 2, 2, 0, 0, 2, 40, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 513 {
			data = data[:513]
		}
		capacity := int64(data[0]%32) + 1
		ops := make([]lruOp, 0, len(data)/2)
		for i := 1; i+1 < len(data); i += 2 {
			kind := data[i] % 8
			if kind > opReset {
				kind = opInsert
			}
			ops = append(ops, lruOp{kind: kind, key: int(data[i+1])})
		}
		checkLRU(t, capacity, ops, func(n int) int64 { return int64(n) })
		checkLRU(t, capacity, ops, pageKeyOf)
	})
}
