package ioreq

import (
	"math/rand"
	"slices"
	"testing"
)

// refLRU is the differential oracle for LRU: a slice ordered by recency,
// most recent first, searched linearly. It shares no code or data
// structure with the slab list or the block index, so agreement is
// evidence that the links, the blocks and the memo implement the same
// eviction order.
type refLRU struct {
	capacity     int
	keys         []int64
	hits, misses uint64
}

// touch moves keys[i] to the front.
func (r *refLRU) touch(i int) {
	k := r.keys[i]
	copy(r.keys[1:i+1], r.keys[:i])
	r.keys[0] = k
}

func (r *refLRU) lookup(k int64) bool {
	i := slices.Index(r.keys, k)
	if i < 0 {
		r.misses++
		return false
	}
	r.touch(i)
	r.hits++
	return true
}

func (r *refLRU) insert(k int64) {
	if i := slices.Index(r.keys, k); i >= 0 {
		r.touch(i)
		return
	}
	r.keys = slices.Insert(r.keys, 0, k)
	if len(r.keys) > r.capacity {
		r.keys = r.keys[:r.capacity]
	}
}

// lruOp is one operation of a checked sequence; key numbers the key
// universe of the run, which a key family maps to an LRU key.
type lruOp struct {
	kind byte // opLookup, opContains, opInsert or opReset
	key  int64
}

const (
	opLookup = iota
	opContains
	opInsert
	opReset
)

// recency walks the slab list from most to least recent, checking that
// every back link mirrors its forward link.
func (c *LRU) recency(t *testing.T) []int64 {
	t.Helper()
	var keys []int64
	prev := int32(0)
	for i := c.nodes[0].next; i != 0; i = c.nodes[i].next {
		if c.nodes[i].prev != prev {
			t.Fatalf("slot %d: prev %d, want %d", i, c.nodes[i].prev, prev)
		}
		if len(keys) > c.Len() {
			t.Fatal("recency list longer than Len: cycle")
		}
		n := c.nodes[i]
		keys = append(keys, c.blocks[n.blk].num<<lruBlockBits|int64(n.sub))
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
func checkLRU(t *testing.T, capacity int64, ops []lruOp, key func(int64) int64) {
	t.Helper()
	c := NewLRU(capacity)
	ref := &refLRU{capacity: int(capacity)}
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
		c.checkIndex(t)
	}
}

// denseKey is the identity key family: key numbers are LRU keys, so
// consecutive numbers share blocks and negative numbers are negative keys.
func denseKey(n int64) int64 { return n }

// fileKeyOf spreads key numbers over three files the way ioreq.Cache
// keys pages (file index << cachePageBits | page), so equal page numbers
// in different files are distinct keys in distant blocks.
func fileKeyOf(n int64) int64 {
	return n%3<<cachePageBits | n/3
}

// checkIndex holds the block index to its invariants: every indexed
// block maps back to itself, counts its resident keys and names only
// nodes that point back at it; every recycled block is empty; the absent
// block is empty; and a non-empty memo agrees with the map.
func (c *LRU) checkIndex(t *testing.T) {
	t.Helper()
	if c.blocks[0] != (lruBlock{}) {
		t.Fatalf("absent block written: %+v", c.blocks[0])
	}
	free := make(map[int32]bool, len(c.free))
	for _, b := range c.free {
		if free[b] || b == 0 {
			t.Fatalf("free list %v: bad or repeated block %d", c.free, b)
		}
		free[b] = true
		if c.blocks[b].used != 0 || c.blocks[b].slots != [lruBlockKeys]int32{} {
			t.Fatalf("recycled block %d not empty: %+v", b, c.blocks[b])
		}
	}
	if len(c.index) != len(c.blocks)-1-len(c.free) {
		t.Fatalf("%d indexed blocks, want %d slab blocks less %d free", len(c.index), len(c.blocks)-1, len(c.free))
	}
	resident := 0
	for b := int32(1); b < int32(len(c.blocks)); b++ {
		if free[b] {
			continue
		}
		blk := &c.blocks[b]
		if got, ok := c.index[blk.num]; !ok || got != b {
			t.Fatalf("block %d (number %d) indexed as %d, %v", b, blk.num, got, ok)
		}
		used := int32(0)
		for sub, i := range blk.slots {
			if i == 0 {
				continue
			}
			used++
			if n := c.nodes[i]; n.blk != b || int(n.sub) != sub {
				t.Fatalf("block %d slot %d names node %d, which points at block %d slot %d", b, sub, i, n.blk, n.sub)
			}
		}
		if used == 0 || used != blk.used {
			t.Fatalf("block %d holds %d keys, counts %d", b, used, blk.used)
		}
		resident += int(used)
	}
	if resident != c.Len() {
		t.Fatalf("blocks hold %d keys, Len %d", resident, c.Len())
	}
	if c.memoNum != noBlock && c.memoBlk != c.index[c.memoNum] {
		t.Fatalf("memo says block number %d is at %d, index says %d", c.memoNum, c.memoBlk, c.index[c.memoNum])
	}
}

// randomOps draws a sequence over a key universe about 1.5× the
// capacity, so runs mix hits, misses and evictions; a Reset lands about
// once per 500 operations.
func randomOps(rng *rand.Rand, capacity int64) []lruOp {
	universe := capacity*3/2 + 2
	ops := make([]lruOp, max(2000, 4*int(capacity)))
	for i := range ops {
		ops[i].key = rng.Int63n(universe)
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

// runOps draws the page-cache access pattern: runs of 1 to 40
// consecutive keys, starting anywhere in [-48, 3×capacity), so runs
// cross block boundaries, go negative and evict whole blocks. A run is
// looked up then inserted (a read), inserted (a write) or probed with
// Contains (a read-ahead check); a Reset lands about once per 60 runs.
func runOps(rng *rand.Rand, capacity int64) []lruOp {
	var ops []lruOp
	for len(ops) < max(2000, 4*int(capacity)) {
		start := rng.Int63n(3*capacity+48) - 48
		n := rng.Int63n(40) + 1
		run := func(kind byte) {
			for k := start; k < start+n; k++ {
				ops = append(ops, lruOp{kind, k})
			}
		}
		switch r := rng.Intn(60); {
		case r == 0:
			ops = append(ops, lruOp{kind: opReset})
		case r < 35:
			run(opLookup)
			run(opInsert)
		case r < 50:
			run(opInsert)
		default:
			run(opContains)
		}
	}
	return ops
}

// memoOps are hand-made sequences aimed at a stale block memo. Keys 0-15
// share block 0, 16-31 block 1; -1 is in block -1.
var memoOps = []struct {
	name     string
	capacity int64
	ops      []lruOp
}{
	// Inserting 1 evicts 0, the last key of the memoised block 0, and
	// must then re-create that block.
	{"evict-own-block", 1, []lruOp{
		{opInsert, 0}, {opInsert, 1}, {opLookup, 0}, {opLookup, 1}, {opInsert, 2}, {opContains, 1}, {opLookup, 2},
	}},
	// Inserting 16 empties block 0, whose slab place block 1 then takes;
	// touching block 0 again must miss, not read block 1's slots.
	{"evict-then-recycle", 1, []lruOp{
		{opLookup, 3}, {opInsert, 3}, {opInsert, 16}, {opLookup, 3}, {opContains, 16}, {opInsert, 3}, {opLookup, 16}, {opLookup, 3},
	}},
	// Inserts into block 1 empty block 0 while the memo names block 1;
	// touching block 0 again must probe the index, then recycle.
	{"evict-other-block", 2, []lruOp{
		{opInsert, 5}, {opInsert, 6}, {opLookup, 5}, {opInsert, 20}, {opInsert, 21}, {opLookup, 5}, {opLookup, 6}, {opInsert, 6}, {opLookup, 20}, {opLookup, 6},
	}},
	// A Reset between two memo hits on the same block.
	{"reset-between-hits", 4, []lruOp{
		{opInsert, 1}, {opInsert, 2}, {opLookup, 1}, {opReset, 0}, {opLookup, 2}, {opContains, 1}, {opInsert, 2}, {opLookup, 2}, {opLookup, 1},
	}},
	// A Reset after a memoised absent block, then a fill across the
	// negative boundary.
	{"reset-absent-negative", 3, []lruOp{
		{opLookup, -1}, {opReset, 0}, {opInsert, -1}, {opInsert, 0}, {opLookup, -1}, {opInsert, -16}, {opInsert, -17}, {opLookup, 0}, {opLookup, -1}, {opContains, -16},
	}},
}

func TestLRUMatchesOracle(t *testing.T) {
	for _, capacity := range []int64{1, 2, 3, 17, 1024} {
		for seed := int64(1); seed <= 3; seed++ {
			ops := randomOps(rand.New(rand.NewSource(seed)), capacity)
			checkLRU(t, capacity, ops, denseKey)
			checkLRU(t, capacity, ops, fileKeyOf)
			checkLRU(t, capacity, runOps(rand.New(rand.NewSource(seed)), capacity), denseKey)
		}
	}
	for _, tc := range memoOps {
		t.Run(tc.name, func(t *testing.T) { checkLRU(t, tc.capacity, tc.ops, denseKey) })
	}
}

// FuzzLRU decodes the first byte into a capacity of 1 to 32 and each
// following byte pair into an operation (inserts weighted 5 in 8) and a
// key in [-64, 192), and holds LRU to the oracle for the dense and the
// file-strided key families (the latter on the raw byte, 0 to 255).
func FuzzLRU(f *testing.F) {
	f.Add([]byte{1, 2, 1, 2, 2, 0, 1, 2, 3, 0, 2, 0, 1})
	f.Add([]byte{2, 2, 5, 2, 6, 0, 5, 2, 7, 1, 6, 0, 6, 3, 0, 2, 5})
	f.Add([]byte{16, 2, 0, 2, 1, 2, 2, 0, 0, 2, 40, 1, 1})
	f.Add([]byte{0, 2, 64, 2, 80, 0, 64, 0, 80, 3, 0, 0, 80})
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
			ops = append(ops, lruOp{kind: kind, key: int64(data[i+1]) - 64})
		}
		checkLRU(t, capacity, ops, denseKey)
		checkLRU(t, capacity, ops, func(n int64) int64 { return fileKeyOf(n + 64) })
	})
}
