package ioreq

import "math"

// LRU is a least-recently-used presence set, lifted from the fsim page
// cache so every caching layer shares one implementation. It tracks
// presence only: the simulator never stores data, just the timing
// consequences of hits and misses.
//
// The recency list is intrusive and slab-backed: nodes live in one
// slice, linked by int32 slot numbers, and the index maps each key to
// its slot. For a pointer-free K (the fsim page number) neither the slab
// nor the index holds a pointer, so the garbage collector never scans
// them. Slots are appended only as keys arrive, so memory is
// proportional to the resident keys, not to the capacity; once full,
// Insert reuses the evicted tail slot in place and allocates nothing.
//
// Slot numbers are int32, so at most math.MaxInt32 keys can be resident:
// NewLRU clamps a larger capacity to that. The clamp only matters to a
// run that inserts over two billion distinct keys, which would need tens
// of GiB for the slab alone.
type LRU[K comparable] struct {
	capacity int64
	// nodes[0] is the list sentinel: its next is the most recent key,
	// its prev the least recent.
	nodes  []lruNode[K]
	index  map[K]int32 // key → slot in nodes
	hits   uint64
	misses uint64
}

// lruNode is one slab slot of the recency list.
type lruNode[K comparable] struct {
	key        K
	prev, next int32
}

// NewLRU builds an LRU holding at most capacity keys (minimum 1,
// maximum math.MaxInt32).
func NewLRU[K comparable](capacity int64) *LRU[K] {
	capacity = max(1, min(capacity, math.MaxInt32))
	return &LRU[K]{
		capacity: capacity,
		nodes:    make([]lruNode[K], 1),
		index:    make(map[K]int32),
	}
}

// Lookup reports whether k is cached, updating recency and counters.
func (c *LRU[K]) Lookup(k K) bool {
	if i, ok := c.index[k]; ok {
		c.moveToFront(i)
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Contains reports presence without touching recency or counters.
func (c *LRU[K]) Contains(k K) bool {
	_, ok := c.index[k]
	return ok
}

// Insert adds k (or refreshes it), evicting the least-recently-used key
// when over capacity.
func (c *LRU[K]) Insert(k K) {
	if i, ok := c.index[k]; ok {
		c.moveToFront(i)
		return
	}
	var i int32
	if int64(len(c.nodes)-1) < c.capacity {
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, lruNode[K]{key: k})
	} else {
		i = c.nodes[0].prev
		delete(c.index, c.nodes[i].key)
		c.nodes[i].key = k
		c.unlink(i)
	}
	c.index[k] = i
	c.pushFront(i)
}

// Reset drops every key but keeps the hit/miss counters: they are
// cumulative across flushes, like kernel counters. The slab and index
// keep their storage for the next fill; the slab is zeroed so dropped
// keys pin no memory.
func (c *LRU[K]) Reset() {
	clear(c.index)
	clear(c.nodes)
	c.nodes = c.nodes[:1]
}

// Len returns the number of cached keys.
func (c *LRU[K]) Len() int { return len(c.nodes) - 1 }

// Hits returns the cumulative lookup hit count.
func (c *LRU[K]) Hits() uint64 { return c.hits }

// Misses returns the cumulative lookup miss count.
func (c *LRU[K]) Misses() uint64 { return c.misses }

func (c *LRU[K]) moveToFront(i int32) {
	if c.nodes[0].next != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *LRU[K]) unlink(i int32) {
	n := &c.nodes[i]
	c.nodes[n.prev].next = n.next
	c.nodes[n.next].prev = n.prev
}

func (c *LRU[K]) pushFront(i int32) {
	head := c.nodes[0].next
	c.nodes[i].prev, c.nodes[i].next = 0, head
	c.nodes[head].prev = i
	c.nodes[0].next = i
}
