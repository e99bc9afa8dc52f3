package ioreq

import (
	"fmt"

	"bps/internal/obs"
	"bps/internal/sim"
)

// CacheConfig parameterizes a client-side shared page cache.
type CacheConfig struct {
	// CapacityBytes is the cache size; <= 0 disables the cache entirely
	// (NewCache returns nil, whose Middleware is a no-op).
	CapacityBytes int64

	// PageSize is the caching granularity (default 64 KiB, one default
	// PFS stripe).
	PageSize int64

	// ReadAhead, when positive, extends sequential cache-missing reads
	// by up to this many bytes beyond the requested range.
	ReadAhead int64

	// MemRate is the cache-hit copy rate in bytes/second (default 5 GB/s).
	MemRate float64

	// HitLatency is the fixed software-path cost paid once per access
	// that hits at least one page (default 1 µs).
	HitLatency sim.Time
}

func (c CacheConfig) withDefaults() CacheConfig {
	if c.PageSize <= 0 {
		c.PageSize = 64 << 10
	}
	if c.MemRate <= 0 {
		c.MemRate = 5e9
	}
	if c.HitLatency <= 0 {
		c.HitLatency = sim.Microsecond
	}
	return c
}

// cachePageBits is the page-number width of a cache key: page pg of
// the file with index fi is key fi<<cachePageBits | pg, so one LRU holds
// every file's pages, a file spans at most 2^40 pages and a cache sees
// at most 2^23 files.
const cachePageBits = 40

// cacheFile is the per-file state: the file's key base and its
// sequential-cursor table, found with one map lookup per request.
type cacheFile struct {
	base    int64 // file index << cachePageBits
	streams cacheStreams
}

// cacheMaxStreams bounds the per-file sequential-cursor table (matching
// the fsim read-ahead tracker): enough for every interleaved client
// stream in the modeled workloads, tiny enough to scan linearly.
const cacheMaxStreams = 64

// cacheStreams tracks per-file sequential read cursors so read-ahead
// fires for each client's stream even when many clients interleave on
// one shared file.
type cacheStreams struct {
	ends []int64
	use  []uint64
	tick uint64
}

// advance reports whether a read at off continues a tracked stream, and
// records end as that stream's new cursor (replacing the least-recently
// advanced cursor when the read starts a new stream).
func (s *cacheStreams) advance(off, end int64) bool {
	s.tick++
	for i, e := range s.ends {
		if e == off {
			s.ends[i], s.use[i] = end, s.tick
			return true
		}
	}
	if len(s.ends) < cacheMaxStreams {
		s.ends = append(s.ends, end)
		s.use = append(s.use, s.tick)
		return false
	}
	victim := 0
	for i := range s.use {
		if s.use[i] < s.use[victim] {
			victim = i
		}
	}
	s.ends[victim], s.use[victim] = end, s.tick
	return false
}

// Cache is a client-side shared page cache with sequential read-ahead —
// the layer the pipeline refactor makes composable: it sits in front of
// the pfs client layer and serves re-read pages at memory speed without
// the pfs package knowing it exists. All clients of one cluster share
// the same Cache value, like compute-node processes sharing a node-local
// page cache; the engine's serialized execution makes the unsynchronized
// sharing deterministic and safe.
//
// Timing model: an access that hits cached pages pays HitLatency plus a
// memory-rate copy of the hit bytes, once. Missing page runs coalesce
// into one downstream sub-request each (keeping the parent request's
// ID), so a partially cached range still reaches storage as few, large
// accesses.
type Cache struct {
	cfg   CacheConfig
	pages *LRU
	files map[string]*cacheFile

	hits   uint64 // requested pages served from cache
	misses uint64 // requested pages fetched downstream
}

// NewCache builds a shared client cache, or returns nil when the config
// disables it (nil Cache handles are safe: Middleware returns nil, which
// Chain skips).
func NewCache(cfg CacheConfig) *Cache {
	if cfg.CapacityBytes <= 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	capPages := cfg.CapacityBytes / cfg.PageSize
	if capPages < 1 {
		capPages = 1
	}
	return &Cache{
		cfg:   cfg,
		pages: NewLRU(capPages),
		files: make(map[string]*cacheFile),
	}
}

// Middleware returns the cache as a wrapper for a pipeline serving a
// file of fileSize bytes. The cache itself is shared across every
// pipeline it wraps; fileSize only bounds read-ahead. It panics when
// the file has more pages than a cache key can number.
func (c *Cache) Middleware(fileSize int64) Middleware {
	if c == nil {
		return nil
	}
	if fileSize > 0 && (fileSize-1)/c.cfg.PageSize >= 1<<cachePageBits {
		panic(fmt.Sprintf("ioreq: cache: a %d-byte file spans over 2^%d pages of %d bytes",
			fileSize, cachePageBits, c.cfg.PageSize))
	}
	return func(next Layer) Layer {
		return &cacheLayer{c: c, next: next, size: fileSize}
	}
}

// Hits returns the number of requested pages served from cache.
func (c *Cache) Hits() uint64 {
	if c == nil {
		return 0
	}
	return c.hits
}

// Misses returns the number of requested pages fetched downstream.
func (c *Cache) Misses() uint64 {
	if c == nil {
		return 0
	}
	return c.misses
}

// HitRate returns hits / (hits + misses), or 0 before any access.
func (c *Cache) HitRate() float64 {
	if c == nil || c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

// cacheLayer binds the shared cache to one file's pipeline.
type cacheLayer struct {
	c    *Cache
	next Layer
	size int64
}

// Serve implements Layer.
func (l *cacheLayer) Serve(p *sim.Proc, req *Request) error {
	c := l.c
	f := c.fileFor(req.File)
	if req.Op == OpWrite {
		// Write-through: the write pays full downstream cost, then the
		// written pages are cache-resident for later readers.
		if err := l.next.Serve(p, req); err != nil {
			return err
		}
		c.insertRange(f.base, req.Off, req.End())
		return nil
	}

	off, end := req.Off, req.End()
	fetchEnd := end
	seq := f.streams.advance(off, end)
	if c.cfg.ReadAhead > 0 && (seq || off == 0) && !c.allCached(f.base, off, end) {
		fetchEnd = end + c.cfg.ReadAhead
		if fetchEnd > l.size {
			fetchEnd = l.size
		}
	}

	ps := c.cfg.PageSize
	first, last := off/ps, (fetchEnd-1)/ps
	lastReq := (end - 1) / ps
	var hitBytes int64
	missStart := int64(-1)

	// flush coalesces the pending miss run [missStart, endPage) into one
	// downstream sub-request and marks its pages resident.
	flush := func(endPage int64) error {
		if missStart < 0 {
			return nil
		}
		start := missStart
		missStart = -1
		lo, hi := start*ps, endPage*ps
		if hi > l.size {
			hi = l.size
		}
		if err := l.next.Serve(p, req.Child(lo, hi-lo)); err != nil {
			return err
		}
		for pg := start; pg < endPage; pg++ {
			c.pages.Insert(f.base | pg)
		}
		return nil
	}

	for pg := first; pg <= last; pg++ {
		if c.pages.Lookup(f.base | pg) {
			if err := flush(pg); err != nil {
				return err
			}
			if pg <= lastReq {
				c.hits++
				hitBytes += overlap(pg*ps, (pg+1)*ps, off, end)
			}
		} else {
			if missStart < 0 {
				missStart = pg
			}
			if pg <= lastReq {
				c.misses++
			}
		}
	}
	if err := flush(last + 1); err != nil {
		return err
	}
	if hitBytes > 0 {
		var sp obs.Span
		if o := obs.Get(p.Engine()); o.Spanning() {
			var args map[string]any
			if o.Tracing() {
				args = map[string]any{"bytes": hitBytes}
			}
			sp = o.Begin(p, "cache", "hit", args)
		}
		p.Sleep(c.cfg.HitLatency + sim.TransferTime(hitBytes, c.cfg.MemRate))
		sp.End()
	}
	return nil
}

// fileFor returns the file's state, giving it the next file index on
// first use.
func (c *Cache) fileFor(name string) *cacheFile {
	f, ok := c.files[name]
	if !ok {
		f = &cacheFile{base: int64(len(c.files)) << cachePageBits}
		c.files[name] = f
	}
	return f
}

// allCached reports whether every page of [off, end) in the file with
// key base is resident, without touching recency or counters.
func (c *Cache) allCached(base, off, end int64) bool {
	ps := c.cfg.PageSize
	for pg := off / ps; pg <= (end-1)/ps; pg++ {
		if !c.pages.Contains(base | pg) {
			return false
		}
	}
	return true
}

// insertRange marks every page overlapping [off, end) in the file with
// key base resident.
func (c *Cache) insertRange(base, off, end int64) {
	ps := c.cfg.PageSize
	for pg := off / ps; pg <= (end-1)/ps; pg++ {
		c.pages.Insert(base | pg)
	}
}

// overlap returns the byte overlap of [alo, ahi) and [blo, bhi).
func overlap(alo, ahi, blo, bhi int64) int64 {
	if blo > alo {
		alo = blo
	}
	if bhi < ahi {
		ahi = bhi
	}
	if ahi <= alo {
		return 0
	}
	return ahi - alo
}
