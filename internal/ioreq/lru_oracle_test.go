package ioreq

import (
	"cmp"
	"math"
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
	capacity int
	keys     []int64
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
		return false
	}
	r.touch(i)
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
	kind byte // opLookup, opContains, opInsert, opReset or opAge
	key  int64
}

const (
	opLookup = iota
	opContains
	opInsert
	opReset
	// opAge moves a stamped cache's clock to within key&7 ticks of
	// math.MaxInt32, so a touch soon forces the conversion to the list.
	// It touches no key, so the oracle ignores it.
	opAge
)

// recency returns the resident keys from most to least recent. A
// stamped cache is read by sorting its stamps; a listed one by walking
// the slab list, checking that every back link mirrors its forward link.
func (c *LRU) recency(t *testing.T) []int64 {
	t.Helper()
	if !c.listed {
		type stamped struct {
			stamp int32
			key   int64
		}
		var all []stamped
		for b := 1; b < len(c.blocks); b++ {
			for sub, s := range c.blocks[b].slots {
				if s != 0 {
					all = append(all, stamped{s, c.blocks[b].num<<lruBlockBits | int64(sub)})
				}
			}
		}
		slices.SortFunc(all, func(a, b stamped) int { return cmp.Compare(b.stamp, a.stamp) })
		var keys []int64
		for _, s := range all {
			keys = append(keys, s.key)
		}
		return keys
	}
	var keys []int64
	prev := int32(0)
	for i := c.nodes[0].next; i != 0; i = c.nodes[i].next {
		if c.nodes[i].prev != prev {
			t.Fatalf("slot %d: prev %d, want %d", i, c.nodes[i].prev, prev)
		}
		if len(keys) > int(c.size) {
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
		case opAge:
			if !c.listed {
				c.clock = max(c.clock, math.MaxInt32-int32(op.key&7))
			}
		}
		if int(c.size) != len(ref.keys) {
			t.Fatalf("op %d (%d %v): len = %d, oracle %d", n, op.kind, k, c.size, len(ref.keys))
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
// block maps back to itself, counts its resident keys and holds either
// distinct stamps no later than the clock (no node slab, no recycled
// block) or, once listed, only nodes that point back at it; every
// recycled block is empty; the absent block is empty; and a non-empty
// memo agrees with the map.
func (c *LRU) checkIndex(t *testing.T) {
	t.Helper()
	if c.blocks[0] != (lruBlock{}) {
		t.Fatalf("absent block written: %+v", c.blocks[0])
	}
	stamps := make(map[int32]bool)
	if c.listed {
		if len(c.nodes)-1 != int(c.size) {
			t.Fatalf("listed: %d nodes for %d keys", len(c.nodes)-1, int(c.size))
		}
	} else if len(c.nodes) != 0 || len(c.free) != 0 {
		t.Fatalf("stamped: %d nodes, %d recycled blocks, want none", len(c.nodes), len(c.free))
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
			if !c.listed {
				if i < 0 || i > c.clock || stamps[i] {
					t.Fatalf("block %d slot %d: stamp %d repeated or outside [1, clock %d]", b, sub, i, c.clock)
				}
				stamps[i] = true
				continue
			}
			if n := c.nodes[i]; n.blk != b || int(n.sub) != sub {
				t.Fatalf("block %d slot %d names node %d, which points at block %d slot %d", b, sub, i, n.blk, n.sub)
			}
		}
		if used == 0 || used != blk.used {
			t.Fatalf("block %d holds %d keys, counts %d", b, used, blk.used)
		}
		resident += int(used)
	}
	if resident != int(c.size) {
		t.Fatalf("blocks hold %d keys, size %d", resident, int(c.size))
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

// handOps are hand-made sequences aimed at a stale block memo and at the
// conversion from stamps to the list. Keys 0-15 share block 0, 16-31
// block 1; -1 is in block -1.
var handOps = []struct {
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
	// A full stamped cache whose oldest keys were hit or refreshed: the
	// first eviction must convert them into the right list places, so 0
	// and then 3 go, not 1 or 2.
	{"touch-then-convert", 4, []lruOp{
		{opInsert, 0}, {opInsert, 1}, {opInsert, 17}, {opInsert, 3}, {opLookup, 1}, {opInsert, 17}, {opContains, 0},
		{opInsert, 4}, {opLookup, 0}, {opInsert, 5}, {opLookup, 3}, {opLookup, 1}, {opInsert, 6}, {opLookup, 17},
	}},
	// A Reset after conversion goes back to stamps: the refill stays
	// stamped until it evicts again, converting into the kept slab.
	{"reset-after-convert", 3, []lruOp{
		{opInsert, 0}, {opInsert, 1}, {opInsert, 2}, {opInsert, 3}, {opReset, 0}, {opInsert, 5}, {opInsert, 21},
		{opLookup, 5}, {opInsert, 7}, {opLookup, 21}, {opInsert, 8}, {opLookup, 5}, {opLookup, 7}, {opInsert, 9},
	}},
	// A clock at math.MaxInt32 forces the conversion before the cache is
	// full: by a hit, by an insert, and, after a Reset, on an empty cache.
	{"clock-overflow", 8, []lruOp{
		{opInsert, 0}, {opInsert, 1}, {opInsert, 2}, {opAge, 1}, {opLookup, 0}, {opLookup, 2}, {opInsert, 3},
		{opReset, 0}, {opInsert, 4}, {opAge, 0}, {opInsert, 5}, {opInsert, 4},
		{opReset, 0}, {opAge, 0}, {opInsert, 6}, {opInsert, 7}, {opLookup, 6},
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
	for _, tc := range handOps {
		t.Run(tc.name, func(t *testing.T) { checkLRU(t, tc.capacity, tc.ops, denseKey) })
	}
}

// FuzzLRU decodes the first byte into a capacity of 1 to 32 and each
// following byte pair into an operation (inserts weighted 4 in 8) and a
// key in [-64, 192), and holds LRU to the oracle for the dense and the
// file-strided key families (the latter on the raw byte, 0 to 255).
func FuzzLRU(f *testing.F) {
	f.Add([]byte{1, 2, 1, 2, 2, 0, 1, 2, 3, 0, 2, 0, 1})
	f.Add([]byte{2, 2, 5, 2, 6, 0, 5, 2, 7, 1, 6, 0, 6, 3, 0, 2, 5})
	f.Add([]byte{16, 2, 0, 2, 1, 2, 2, 0, 0, 2, 40, 1, 1})
	f.Add([]byte{0, 2, 64, 2, 80, 0, 64, 0, 80, 3, 0, 0, 80})
	// The hand-made conversions: touch-then-convert, reset-after-convert
	// and clock-overflow.
	f.Add([]byte{3, 2, 64, 2, 65, 2, 81, 2, 67, 0, 65, 2, 81, 2, 68, 0, 64, 2, 69, 0, 67, 2, 70})
	f.Add([]byte{2, 2, 64, 2, 65, 2, 66, 2, 67, 3, 0, 2, 69, 2, 85, 0, 69, 2, 71, 0, 85, 2, 72, 0, 69})
	f.Add([]byte{7, 2, 64, 2, 65, 4, 1, 0, 64, 0, 65, 2, 66, 3, 0, 4, 0, 2, 70, 2, 71, 0, 70})
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
			if kind > opAge {
				kind = opInsert
			}
			ops = append(ops, lruOp{kind: kind, key: int64(data[i+1]) - 64})
		}
		checkLRU(t, capacity, ops, denseKey)
		checkLRU(t, capacity, ops, func(n int64) int64 { return fileKeyOf(n + 64) })
	})
}
