package ioreq

import "math"

// LRU is a least-recently-used presence set of int64 keys, lifted from
// the fsim page cache so every caching layer shares one implementation.
// It tracks presence only: the simulator never stores data, just the
// timing consequences of hits and misses.
//
// The recency list is intrusive and slab-backed: nodes live in one
// slice, linked by int32 slot numbers. Slots are appended only as keys
// arrive, so memory is proportional to the resident keys, not to the
// capacity; once full, Insert reuses the evicted tail slot in place and
// allocates nothing.
//
// The index is block-structured, because callers walk pages in runs:
// key k lives in block k>>lruBlockBits, a fixed array of slot numbers
// (0 = absent; slot 0 is the list sentinel, never a key). A map takes a
// block number to its place in the block slab, and a one-entry memo of
// the last block resolved means a run of consecutive keys pays one map
// probe per block rather than one per key. Each node records its block
// and position, so eviction unlinks a key without hashing at all. Nodes,
// blocks and the map are pointer-free: the garbage collector never scans
// them.
//
// Slot numbers are int32, so at most math.MaxInt32 keys can be resident:
// NewLRU clamps a larger capacity to that. The clamp only matters to a
// run that inserts over two billion distinct keys, which would need tens
// of GiB for the slab alone.
type LRU struct {
	capacity int64
	// nodes[0] is the list sentinel: its next is the most recent key,
	// its prev the least recent.
	nodes []lruNode
	// blocks[0] is the absent block: always empty, never written, so a
	// key whose block is not indexed reads slot 0 from it.
	blocks []lruBlock
	free   []int32         // emptied blocks awaiting reuse
	index  map[int64]int32 // block number → place in blocks
	// memoNum/memoBlk cache the last block resolved, including an
	// absent one (memoBlk 0); memoNum is noBlock when the memo is empty.
	memoNum int64
	memoBlk int32
	hits    uint64
	misses  uint64
}

const (
	// lruBlockBits sets the block width: 16 consecutive keys per block.
	lruBlockBits = 4
	lruBlockKeys = 1 << lruBlockBits
	lruBlockMask = lruBlockKeys - 1

	// noBlock is below every block number k>>lruBlockBits, so it marks
	// an empty memo.
	noBlock = math.MinInt64
)

// lruNode is one slab slot of the recency list. Its key is
// blocks[blk].num<<lruBlockBits | sub.
type lruNode struct {
	prev, next int32
	blk        int32
	sub        uint8
}

// lruBlock holds the slots of lruBlockKeys consecutive keys.
type lruBlock struct {
	slots [lruBlockKeys]int32
	num   int64 // block number
	used  int32 // resident keys
}

// NewLRU builds an LRU holding at most capacity keys (minimum 1,
// maximum math.MaxInt32).
func NewLRU(capacity int64) *LRU {
	capacity = max(1, min(capacity, math.MaxInt32))
	return &LRU{
		capacity: capacity,
		nodes:    make([]lruNode, 1),
		blocks:   make([]lruBlock, 1),
		index:    make(map[int64]int32),
		memoNum:  noBlock,
	}
}

// Lookup reports whether k is cached, updating recency and counters.
func (c *LRU) Lookup(k int64) bool {
	if i := c.slot(k); i != 0 {
		c.moveToFront(i)
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Contains reports presence without touching recency or counters.
func (c *LRU) Contains(k int64) bool { return c.slot(k) != 0 }

// Insert adds k (or refreshes it), evicting the least-recently-used key
// when over capacity.
func (c *LRU) Insert(k int64) {
	if i := c.slot(k); i != 0 {
		c.moveToFront(i)
		return
	}
	var i int32
	if int64(len(c.nodes)-1) < c.capacity {
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, lruNode{})
	} else {
		i = c.nodes[0].prev
		c.unlink(i)
		c.evict(i)
	}
	// Resolve k's block after the eviction, which may have emptied it.
	num := k >> lruBlockBits
	b := c.block(num)
	if b == 0 {
		b = c.newBlock(num)
	}
	sub := k & lruBlockMask
	c.blocks[b].slots[sub] = i
	c.blocks[b].used++
	c.nodes[i].blk, c.nodes[i].sub = b, uint8(sub)
	c.pushFront(i)
}

// Reset drops every key but keeps the hit/miss counters: they are
// cumulative across flushes, like kernel counters. The slabs, free list
// and index keep their storage for the next fill.
func (c *LRU) Reset() {
	clear(c.index)
	c.nodes = c.nodes[:1]
	c.nodes[0] = lruNode{} // the sentinel of an empty list links to itself
	c.blocks = c.blocks[:1]
	c.free = c.free[:0]
	c.memoNum = noBlock
}

// Len returns the number of cached keys.
func (c *LRU) Len() int { return len(c.nodes) - 1 }

// Hits returns the cumulative lookup hit count.
func (c *LRU) Hits() uint64 { return c.hits }

// Misses returns the cumulative lookup miss count.
func (c *LRU) Misses() uint64 { return c.misses }

// slot returns k's node slot, 0 when k is absent.
func (c *LRU) slot(k int64) int32 {
	return c.blocks[c.block(k>>lruBlockBits)].slots[k&lruBlockMask]
}

// block returns the place of block num in the block slab, 0 when it is
// not indexed, probing the map only when num is not the memoised block.
func (c *LRU) block(num int64) int32 {
	if num != c.memoNum {
		c.memoNum, c.memoBlk = num, c.index[num]
	}
	return c.memoBlk
}

// newBlock indexes an empty block for num, reusing an emptied one when
// there is one, and memoises it.
func (c *LRU) newBlock(num int64) int32 {
	var b int32
	if n := len(c.free); n > 0 {
		b = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		b = int32(len(c.blocks))
		c.blocks = append(c.blocks, lruBlock{})
	}
	c.blocks[b].num = num
	c.index[num] = b
	c.memoNum, c.memoBlk = num, b
	return b
}

// evict clears node i's key from its block, recycling the block when
// that was its last key. The node itself is left for the caller.
func (c *LRU) evict(i int32) {
	n := c.nodes[i]
	blk := &c.blocks[n.blk]
	blk.slots[n.sub] = 0
	if blk.used--; blk.used == 0 {
		delete(c.index, blk.num)
		c.free = append(c.free, n.blk)
		if c.memoNum == blk.num {
			c.memoNum = noBlock
		}
	}
}

func (c *LRU) moveToFront(i int32) {
	if c.nodes[0].next != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *LRU) unlink(i int32) {
	n := &c.nodes[i]
	c.nodes[n.prev].next = n.next
	c.nodes[n.next].prev = n.prev
}

func (c *LRU) pushFront(i int32) {
	head := c.nodes[0].next
	c.nodes[i].prev, c.nodes[i].next = 0, head
	c.nodes[head].prev = i
	c.nodes[0].next = i
}
