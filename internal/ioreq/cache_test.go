package ioreq

import (
	"testing"

	"bps/internal/sim"
)

const testPage = 4096

// recordingLayer captures the sub-requests a cache emits downstream.
type recordingLayer struct {
	reqs []*Request
}

func (r *recordingLayer) Serve(p *sim.Proc, req *Request) error {
	r.reqs = append(r.reqs, req)
	return nil
}

// cacheSetup wires a cache over a recording layer for a fileSize-byte
// file and runs body in a simulated process.
func cacheSetup(t *testing.T, cfg CacheConfig, fileSize int64, body func(p *sim.Proc, l Layer, c *Cache, rec *recordingLayer)) {
	t.Helper()
	e := sim.NewEngine(1)
	rec := &recordingLayer{}
	c := NewCache(cfg)
	if c == nil {
		t.Fatal("cache disabled by config")
	}
	l := Chain(rec, c.Middleware(fileSize))
	runProc(t, e, func(p *sim.Proc) { body(p, l, c, rec) })
}

func TestCacheDisabled(t *testing.T) {
	if c := NewCache(CacheConfig{}); c != nil {
		t.Fatal("zero config must disable the cache")
	}
	var c *Cache
	if c.Middleware(1<<20) != nil {
		t.Fatal("nil cache Middleware must be nil (skipped by Chain)")
	}
	if c.Hits() != 0 || c.Misses() != 0 || c.HitRate() != 0 {
		t.Fatal("nil cache accessors must return zero")
	}
}

// TestCacheMiddlewareRejectsHugeFile pins the key-width limit: a page
// key holds 2^40 pages of a file, so the last page that fits is
// accepted and one more is refused up front.
func TestCacheMiddlewareRejectsHugeFile(t *testing.T) {
	c := NewCache(CacheConfig{CapacityBytes: 64 * testPage, PageSize: testPage})
	if c.Middleware(testPage<<cachePageBits) == nil {
		t.Fatal("a file of exactly 2^40 pages was refused")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Middleware accepted a file of 2^40+1 pages")
		}
	}()
	c.Middleware(testPage<<cachePageBits + 1)
}

func TestCacheHitAvoidsDownstream(t *testing.T) {
	cfg := CacheConfig{CapacityBytes: 64 * testPage, PageSize: testPage}
	cacheSetup(t, cfg, 1<<20, func(p *sim.Proc, l Layer, c *Cache, rec *recordingLayer) {
		e := p.Engine()
		if err := l.Serve(p, New(e, OpRead, testPage, 2*testPage, "f")); err != nil {
			t.Fatal(err)
		}
		if len(rec.reqs) != 1 || rec.reqs[0].Off != testPage || rec.reqs[0].Size != 2*testPage {
			t.Fatalf("cold read forwarded %+v, want one exact fetch", rec.reqs)
		}
		before := p.Now()
		if err := l.Serve(p, New(e, OpRead, testPage, 2*testPage, "f")); err != nil {
			t.Fatal(err)
		}
		if len(rec.reqs) != 1 {
			t.Fatalf("warm re-read went downstream: %+v", rec.reqs[1:])
		}
		if p.Now() <= before {
			t.Fatal("cache hit paid no memory-copy time")
		}
		if c.Hits() != 2 || c.Misses() != 2 {
			t.Fatalf("hits/misses = %d/%d, want 2/2", c.Hits(), c.Misses())
		}
		if c.HitRate() != 0.5 {
			t.Fatalf("hit rate = %v, want 0.5", c.HitRate())
		}
	})
}

func TestCacheCoalescesMissRuns(t *testing.T) {
	cfg := CacheConfig{CapacityBytes: 64 * testPage, PageSize: testPage}
	cacheSetup(t, cfg, 1<<20, func(p *sim.Proc, l Layer, c *Cache, rec *recordingLayer) {
		e := p.Engine()
		// Warm page 1 only, then read pages 0–2: the two missing pages
		// sit on either side of the cached one, so the cache must issue
		// exactly two one-page fetches, not three or one.
		if err := l.Serve(p, New(e, OpRead, testPage, testPage, "f")); err != nil {
			t.Fatal(err)
		}
		rec.reqs = nil
		req := New(e, OpRead, 0, 3*testPage, "f")
		if err := l.Serve(p, req); err != nil {
			t.Fatal(err)
		}
		if len(rec.reqs) != 2 {
			t.Fatalf("downstream fetches = %+v, want 2 coalesced runs", rec.reqs)
		}
		if rec.reqs[0].Off != 0 || rec.reqs[0].Size != testPage {
			t.Fatalf("first run = [%d,%d)", rec.reqs[0].Off, rec.reqs[0].End())
		}
		if rec.reqs[1].Off != 2*testPage || rec.reqs[1].Size != testPage {
			t.Fatalf("second run = [%d,%d)", rec.reqs[1].Off, rec.reqs[1].End())
		}
		// Sub-requests keep the parent's identity.
		for _, sub := range rec.reqs {
			if sub.ID != req.ID {
				t.Fatalf("sub-request ID %d, parent %d", sub.ID, req.ID)
			}
		}
	})
}

func TestCacheReadAheadClampsAtEOF(t *testing.T) {
	fileSize := int64(4 * testPage)
	cfg := CacheConfig{CapacityBytes: 64 * testPage, PageSize: testPage, ReadAhead: 8 * testPage}
	cacheSetup(t, cfg, fileSize, func(p *sim.Proc, l Layer, c *Cache, rec *recordingLayer) {
		e := p.Engine()
		// A read starting at offset 0 triggers read-ahead, clamped to EOF.
		if err := l.Serve(p, New(e, OpRead, 0, testPage, "f")); err != nil {
			t.Fatal(err)
		}
		if len(rec.reqs) != 1 || rec.reqs[0].Off != 0 || rec.reqs[0].Size != fileSize {
			t.Fatalf("fetch = %+v, want one whole-file fetch", rec.reqs)
		}
		// The read-ahead pages now serve sequential follow-ups from cache.
		rec.reqs = nil
		for off := int64(testPage); off < fileSize; off += testPage {
			if err := l.Serve(p, New(e, OpRead, off, testPage, "f")); err != nil {
				t.Fatal(err)
			}
		}
		if len(rec.reqs) != 0 {
			t.Fatalf("prefetched reads went downstream: %+v", rec.reqs)
		}
	})
}

func TestCacheRandomReadSkipsReadAhead(t *testing.T) {
	cfg := CacheConfig{CapacityBytes: 64 * testPage, PageSize: testPage, ReadAhead: 8 * testPage}
	cacheSetup(t, cfg, 1<<20, func(p *sim.Proc, l Layer, c *Cache, rec *recordingLayer) {
		e := p.Engine()
		// A non-sequential read away from offset 0 must not read ahead.
		if err := l.Serve(p, New(e, OpRead, 100*testPage, testPage, "f")); err != nil {
			t.Fatal(err)
		}
		if len(rec.reqs) != 1 || rec.reqs[0].Size != testPage {
			t.Fatalf("random read fetched %+v, want exact size", rec.reqs)
		}
		// Continuing that stream is sequential: read-ahead kicks in.
		if err := l.Serve(p, New(e, OpRead, 101*testPage, testPage, "f")); err != nil {
			t.Fatal(err)
		}
		if got := rec.reqs[1].Size; got != 9*testPage {
			t.Fatalf("sequential continuation fetched %d bytes, want demand+readahead", got)
		}
	})
}

func TestCacheWriteThrough(t *testing.T) {
	cfg := CacheConfig{CapacityBytes: 64 * testPage, PageSize: testPage}
	cacheSetup(t, cfg, 1<<20, func(p *sim.Proc, l Layer, c *Cache, rec *recordingLayer) {
		e := p.Engine()
		if err := l.Serve(p, New(e, OpWrite, 0, 2*testPage, "f")); err != nil {
			t.Fatal(err)
		}
		if len(rec.reqs) != 1 || rec.reqs[0].Op != OpWrite || rec.reqs[0].Size != 2*testPage {
			t.Fatalf("write forwarded as %+v, want full write-through", rec.reqs)
		}
		rec.reqs = nil
		if err := l.Serve(p, New(e, OpRead, 0, 2*testPage, "f")); err != nil {
			t.Fatal(err)
		}
		if len(rec.reqs) != 0 {
			t.Fatal("read after write-through went downstream")
		}
	})
}

func TestCacheEvictionBoundsResidency(t *testing.T) {
	cfg := CacheConfig{CapacityBytes: 2 * testPage, PageSize: testPage}
	cacheSetup(t, cfg, 1<<20, func(p *sim.Proc, l Layer, c *Cache, rec *recordingLayer) {
		e := p.Engine()
		for pg := int64(0); pg < 4; pg++ {
			if err := l.Serve(p, New(e, OpRead, pg*testPage, testPage, "f")); err != nil {
				t.Fatal(err)
			}
		}
		rec.reqs = nil
		// Page 0 was evicted by pages 2 and 3; re-reading it must miss.
		if err := l.Serve(p, New(e, OpRead, 0, testPage, "f")); err != nil {
			t.Fatal(err)
		}
		if len(rec.reqs) != 1 {
			t.Fatal("evicted page still served from cache")
		}
	})
}

func TestCacheSharedAcrossPipelines(t *testing.T) {
	// One Cache wrapping two files' pipelines: pages are keyed by file,
	// so the same offsets do not collide.
	e := sim.NewEngine(1)
	rec := &recordingLayer{}
	c := NewCache(CacheConfig{CapacityBytes: 64 * testPage, PageSize: testPage})
	la := Chain(rec, c.Middleware(1<<20))
	lb := Chain(rec, c.Middleware(1<<20))
	runProc(t, e, func(p *sim.Proc) {
		if err := la.Serve(p, New(e, OpRead, 0, testPage, "a")); err != nil {
			t.Fatal(err)
		}
		if err := lb.Serve(p, New(e, OpRead, 0, testPage, "b")); err != nil {
			t.Fatal(err)
		}
		if len(rec.reqs) != 2 {
			t.Fatalf("distinct files shared pages: %+v", rec.reqs)
		}
		rec.reqs = nil
		if err := la.Serve(p, New(e, OpRead, 0, testPage, "a")); err != nil {
			t.Fatal(err)
		}
		if len(rec.reqs) != 0 {
			t.Fatal("shared cache missed a page it cached via the other pipeline")
		}
	})
}
