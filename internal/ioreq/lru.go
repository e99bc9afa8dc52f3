package ioreq

import (
	"cmp"
	"math"
	"slices"
)

// LRU is a least-recently-used presence set of int64 keys, lifted from
// the fsim page cache so every caching layer shares one implementation.
// It tracks presence only: the simulator never stores data, just the
// timing consequences of hits and misses.
//
// Recency has two representations, chosen by whether the cache has
// ever had to evict. Until then (most page caches never fill), a
// resident key's index slot holds a last-touch stamp from a per-cache
// int32 clock and there is no list at all: Lookup and Insert write that
// one slot. Every touch takes a new tick, so stamps are distinct and
// order the keys exactly as the list would. The first eviction, or a
// clock about to overflow, converts the cache: one pass over the index
// fills a node slab at its exact size, sorts it by stamp in place and
// links it. From then on recency is an intrusive list in that slab,
// linked by int32 slot numbers; once full, Insert reuses the evicted
// tail slot in place and allocates nothing. Reset returns to stamps,
// keeping the slab's storage for the next conversion. Either way memory
// is proportional to the resident keys, not to the capacity.
//
// The index is block-structured, because callers walk pages in runs:
// key k lives in block k>>lruBlockBits, a fixed array of stamps or slot
// numbers (0 = absent: stamps start at 1, and slot 0 is the list
// sentinel, never a key). A map takes a block number to its place in
// the block slab, and a one-entry memo of the last block resolved means
// a run of consecutive keys pays one map probe per block rather than
// one per key. Each node records its block and position, so eviction
// unlinks a key without hashing at all. Nodes, blocks and the map are
// pointer-free: the garbage collector never scans them.
//
// Slot numbers are int32, so at most math.MaxInt32 keys can be resident:
// NewLRU clamps a larger capacity to that. The clamp only matters to a
// run that inserts over two billion distinct keys, which would need tens
// of GiB for the slab alone.
type LRU struct {
	capacity int64
	size     int64 // resident keys
	// listed reports that recency is the node list, not stamps.
	listed bool
	// clock is the last stamp handed out; unused once listed.
	clock int32
	// nodes[0] is the list sentinel: its next is the most recent key,
	// its prev the least recent. Empty until the cache is listed.
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
// blocks[blk].num<<lruBlockBits | sub. While listify sorts the slab,
// prev holds the key's stamp.
type lruNode struct {
	prev, next int32
	blk        int32
	sub        uint8
}

// lruBlock holds the stamps or slots of lruBlockKeys consecutive keys.
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
		blocks:   make([]lruBlock, 1),
		index:    make(map[int64]int32),
		memoNum:  noBlock,
	}
}

// Lookup reports whether k is cached, updating recency and counters.
func (c *LRU) Lookup(k int64) bool {
	if s := c.slot(k); *s != 0 {
		if c.listed {
			c.moveToFront(*s)
		} else {
			c.restamp(s)
		}
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Contains reports presence without touching recency or counters.
func (c *LRU) Contains(k int64) bool { return *c.slot(k) != 0 }

// Insert adds k (or refreshes it), evicting the least-recently-used key
// when over capacity.
func (c *LRU) Insert(k int64) {
	if s := c.slot(k); *s != 0 {
		if c.listed {
			c.moveToFront(*s)
		} else {
			c.restamp(s)
		}
		return
	}
	if !c.listed && c.stamp(k) {
		return
	}
	var i int32
	if c.size < c.capacity {
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, lruNode{})
		c.size++
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

// restamp makes the stamped key whose stamp s points at the most recent,
// converting to the list when the clock is spent.
func (c *LRU) restamp(s *int32) {
	if c.clock == math.MaxInt32 {
		c.listify()
		c.moveToFront(*s)
		return
	}
	c.clock++
	*s = c.clock
}

// stamp inserts absent key k into a stamped cache and reports true, or,
// when the cache is full or the clock spent, converts to the list and
// reports false, leaving the insert to the list. It resolves k's block
// itself rather than sharing a helper with Insert, whose listed path
// would pay for the extra call on every eviction.
func (c *LRU) stamp(k int64) bool {
	if c.size == c.capacity || c.clock == math.MaxInt32 {
		c.listify()
		return false
	}
	num := k >> lruBlockBits
	b := c.block(num)
	if b == 0 {
		b = c.newBlock(num)
	}
	c.clock++
	c.blocks[b].slots[k&lruBlockMask] = c.clock
	c.blocks[b].used++
	c.size++
	return true
}

// listify converts stamps to the recency list: it gathers the resident
// keys into a node slab of exactly size+1 slots (reusing its storage
// when that is large enough) with each stamp parked in prev, sorts them
// oldest first, then links them so that slab order is recency order and
// points each index slot at its node. Ascending order makes the sort
// cheap for the common fill, whose stamps already rise in block order.
// Blocks are never freed while stamped, so every block but the absent
// one is indexed.
func (c *LRU) listify() {
	n := int(c.size) + 1
	if cap(c.nodes) < n {
		c.nodes = make([]lruNode, n)
	}
	c.nodes = c.nodes[:n]
	j := 1
	for b := 1; b < len(c.blocks); b++ {
		for sub, stamp := range c.blocks[b].slots {
			if stamp != 0 {
				c.nodes[j] = lruNode{prev: stamp, blk: int32(b), sub: uint8(sub)}
				j++
			}
		}
	}
	slices.SortFunc(c.nodes[1:], func(a, b lruNode) int { return cmp.Compare(a.prev, b.prev) })
	// Node i's older neighbour is i-1 and its newer one i+1; the
	// sentinel closes the ring at both ends.
	for i := range c.nodes {
		if i > 0 {
			c.blocks[c.nodes[i].blk].slots[c.nodes[i].sub] = int32(i)
		}
		newer := (i + 1) % n
		c.nodes[i].prev = int32(newer)
		c.nodes[newer].next = int32(i)
	}
	c.listed = true
}

// Reset drops every key but keeps the hit/miss counters: they are
// cumulative across flushes, like kernel counters. Recency goes back to
// stamps; the slabs, free list and index keep their storage for the
// next fill.
func (c *LRU) Reset() {
	clear(c.index)
	c.size, c.listed, c.clock = 0, false, 0
	c.nodes = c.nodes[:0]
	c.blocks = c.blocks[:1]
	c.free = c.free[:0]
	c.memoNum = noBlock
}

// Len returns the number of cached keys.
func (c *LRU) Len() int { return int(c.size) }

// Hits returns the cumulative lookup hit count.
func (c *LRU) Hits() uint64 { return c.hits }

// Misses returns the cumulative lookup miss count.
func (c *LRU) Misses() uint64 { return c.misses }

// slot points at k's stamp or node slot, which is 0 when k is absent.
// An absent key may point into the absent block: write only through a
// non-zero slot.
func (c *LRU) slot(k int64) *int32 {
	return &c.blocks[c.block(k>>lruBlockBits)].slots[k&lruBlockMask]
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
