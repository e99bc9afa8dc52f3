// Package fsim simulates a local file system on top of a simulated block
// device: extent-based allocation mapping file offsets to device offsets,
// plus an optional write-through LRU page cache that can be flushed
// explicitly (the BPS paper flushes all caches before each run).
package fsim

import (
	"fmt"
	"math/rand"
	"slices"

	"bps/internal/device"
	"bps/internal/ioreq"
	"bps/internal/sim"
)

// Config parameterizes a local file system.
type Config struct {
	Name string

	// BlockSize is the allocation and cache-page granularity (default 4096).
	BlockSize int64

	// CacheBytes is the page-cache capacity; 0 disables caching.
	CacheBytes int64

	// MemRate is the memory copy rate for cache hits (default 5 GB/s).
	MemRate float64

	// CacheHitLatency is the fixed cost of a cache hit (default 1 µs).
	CacheHitLatency sim.Time

	// ReadAhead, when positive and caching is enabled, extends
	// cache-missing sequential reads by this many bytes, like the kernel
	// readahead an I/O server relies on: interleaved sequential streams
	// then cost one seek per readahead window instead of one per request.
	// Detection is per-stream (multiple concurrent cursors per file).
	ReadAhead int64

	// FragmentExtent, when positive, models an aged file system:
	// allocation happens in extents of this size scattered across the
	// device (deterministically, from the engine's seed) instead of one
	// contiguous run, so logically sequential reads pay seeks at every
	// extent boundary.
	FragmentExtent int64

	// WriteBack buffers writes in memory (requires CacheBytes > 0): the
	// application pays only a memory copy, and a flusher daemon writes
	// dirty pages to the device after FlushDelay (or immediately on
	// Sync). This is the behaviour the BPS paper defends against by
	// flushing all caches before each run — with write-back on, recorded
	// access times no longer reflect device work.
	WriteBack bool

	// FlushDelay is the write-back delay before dirty pages go to the
	// device (default 100 ms).
	FlushDelay sim.Time
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "fs"
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 4096
	}
	if c.MemRate <= 0 {
		c.MemRate = 5e9
	}
	if c.CacheHitLatency <= 0 {
		c.CacheHitLatency = sim.Microsecond
	}
	if c.FlushDelay <= 0 {
		c.FlushDelay = 100 * sim.Millisecond
	}
	return c
}

// FileSystem is a simulated local file system bound to one device.
type FileSystem struct {
	eng      *sim.Engine
	dev      device.Device
	cfg      Config
	files    map[string]*File
	nextFree int64
	cache    *ioreq.LRU[int64]
	rng      *rand.Rand // the engine RNG, latched at New

	moved int64 // bytes actually transferred to/from the device

	// Write-back state: dirty device pages awaiting flush. Dirty pages
	// live outside the LRU so eviction can never lose unwritten data.
	dirty       map[int64]bool
	flushSignal *sim.Queue
	syncWaiters []*sim.Future
	forceFlush  bool
	flushTimer  *sim.Future // in-progress lazy delay, completable early
}

// New constructs a file system on dev.
func New(e *sim.Engine, dev device.Device, cfg Config) *FileSystem {
	cfg = cfg.withDefaults()
	fs := &FileSystem{
		eng:   e,
		dev:   dev,
		cfg:   cfg,
		files: make(map[string]*File),
		rng:   e.Rand(),
	}
	if cfg.CacheBytes > 0 {
		fs.cache = ioreq.NewLRU[int64](cfg.CacheBytes / cfg.BlockSize)
	}
	if cfg.WriteBack {
		if fs.cache == nil {
			panic("fsim: WriteBack requires CacheBytes > 0")
		}
		fs.dirty = make(map[int64]bool)
		fs.flushSignal = e.NewQueue()
		e.SpawnDaemon(cfg.Name+".flusher", fs.flusher)
	}
	return fs
}

// Dirty returns the number of dirty (unflushed) pages.
func (fs *FileSystem) Dirty() int { return len(fs.dirty) }

// isDirty reports whether a device page is buffered dirty in memory.
func (fs *FileSystem) isDirty(pg int64) bool {
	return fs.dirty != nil && fs.dirty[pg]
}

// Sync blocks p until every dirty page has reached the device (fsync
// semantics), skipping the flush delay for flushes that have not started
// yet; a flush already waiting out its delay completes on its own
// schedule. A no-op when nothing is dirty or write-back is off.
func (fs *FileSystem) Sync(p *sim.Proc) {
	if fs.dirty == nil || len(fs.dirty) == 0 {
		return
	}
	fut := p.NewFuture()
	fs.syncWaiters = append(fs.syncWaiters, fut)
	fs.forceFlush = true
	if fs.flushTimer != nil && !fs.flushTimer.Done() {
		fs.flushTimer.Complete() // cut an in-progress lazy delay short
	}
	fs.flushSignal.Put(struct{}{})
	fut.Wait(p)
}

// flusher is the write-back daemon: woken when pages first go dirty (or
// by Sync), it waits out the flush delay, then writes the dirty snapshot
// to the device in coalesced runs.
func (fs *FileSystem) flusher(p *sim.Proc) {
	for {
		fs.flushSignal.Get(p)
		if len(fs.dirty) == 0 {
			fs.completeSyncs()
			continue
		}
		if !fs.forceFlush {
			// Interruptible lazy delay: Sync completes the timer early.
			timer := p.NewFuture()
			fs.flushTimer = timer
			p.After(fs.cfg.FlushDelay, func() {
				if !timer.Done() {
					timer.Complete()
				}
			})
			timer.Wait(p)
			fs.flushTimer = nil
		}
		fs.forceFlush = false

		// Snapshot and clear: writes landing during the device I/O
		// re-dirty pages and deposit a fresh signal.
		pages := make([]int64, 0, len(fs.dirty))
		for pg := range fs.dirty {
			pages = append(pages, pg)
		}
		fs.dirty = make(map[int64]bool)
		slices.Sort(pages)

		bs := fs.cfg.BlockSize
		for i := 0; i < len(pages); {
			j := i
			for j+1 < len(pages) && pages[j+1] == pages[j]+1 {
				j++
			}
			n := int64(j-i+1) * bs
			fs.moved += n
			// The flusher ignores individual write errors (as the kernel
			// does for async write-back); data is still marked clean.
			_ = fs.dev.Access(p, device.Request{Offset: pages[i] * bs, Size: n, Write: true})
			for _, pg := range pages[i : j+1] {
				fs.cache.Insert(pg)
			}
			i = j + 1
		}
		if len(fs.dirty) == 0 {
			fs.completeSyncs()
		}
	}
}

func (fs *FileSystem) completeSyncs() {
	for _, fut := range fs.syncWaiters {
		fut.Complete()
	}
	fs.syncWaiters = nil
}

// Device returns the underlying device.
func (fs *FileSystem) Device() device.Device { return fs.dev }

// Moved returns the number of bytes actually moved to or from the device
// (cache hits excluded). This is the "amount of data actually moved
// through the I/O system" that the bandwidth metric measures.
func (fs *FileSystem) Moved() int64 { return fs.moved }

// FlushCache drops all cached pages, mimicking the paper's pre-run cache
// flush. No-op when caching is disabled.
func (fs *FileSystem) FlushCache() {
	if fs.cache != nil {
		fs.cache.Reset()
	}
}

// CacheHits returns the number of page-cache hits served.
func (fs *FileSystem) CacheHits() uint64 {
	if fs.cache == nil {
		return 0
	}
	return fs.cache.Hits()
}

// File is an open file with a physical extent mapping.
type File struct {
	fs      *FileSystem
	name    string
	size    int64
	extents []extent
	ra      raState
}

// extent maps [FileOff, FileOff+Len) to [DevOff, DevOff+Len).
type extent struct {
	fileOff int64
	devOff  int64
	length  int64
}

// Create allocates a file of the given size. Allocation is contiguous and
// block-aligned; running out of device space is an error.
func (fs *FileSystem) Create(name string, size int64) (*File, error) {
	if size <= 0 {
		return nil, fmt.Errorf("fsim: create %q: size %d must be positive", name, size)
	}
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("fsim: create %q: already exists", name)
	}
	alloc := roundUp(size, fs.cfg.BlockSize)
	if fs.nextFree+alloc > fs.dev.Capacity() {
		return nil, fmt.Errorf("fsim: create %q: device full (%d needed, %d free)",
			name, alloc, fs.dev.Capacity()-fs.nextFree)
	}
	f := &File{fs: fs, name: name, size: size}
	if fs.cfg.FragmentExtent > 0 {
		f.extents = fs.allocateFragmented(alloc)
	} else {
		f.extents = []extent{{fileOff: 0, devOff: fs.nextFree, length: alloc}}
		fs.nextFree += alloc
	}
	fs.files[name] = f
	return f, nil
}

// allocateFragmented scatters the file's extents over the device,
// deterministically per engine seed, leaving gaps between them like an
// aged allocator working around existing data.
func (fs *FileSystem) allocateFragmented(alloc int64) []extent {
	ext := roundUp(fs.cfg.FragmentExtent, fs.cfg.BlockSize)
	rng := fs.rng
	var extents []extent
	var fileOff int64
	for fileOff < alloc {
		n := ext
		if fileOff+n > alloc {
			n = alloc - fileOff
		}
		// Skip a random gap of up to 16 extents before the next run.
		gap := rng.Int63n(16) * ext
		if fs.nextFree+gap+n > fs.dev.Capacity() {
			gap = 0 // device nearly full: fall back to packing
		}
		fs.nextFree += gap
		extents = append(extents, extent{fileOff: fileOff, devOff: fs.nextFree, length: n})
		fs.nextFree += n
		fileOff += n
	}
	return extents
}

// Open returns an existing file.
func (fs *FileSystem) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("fsim: open %q: no such file", name)
	}
	return f, nil
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the logical file size in bytes.
func (f *File) Size() int64 { return f.size }

// ReadAt reads size bytes at file offset off, blocking the calling process
// for the simulated duration.
func (f *File) ReadAt(p *sim.Proc, off, size int64) error {
	return f.access(p, off, size, false)
}

// WriteAt writes size bytes at file offset off.
func (f *File) WriteAt(p *sim.Proc, off, size int64) error {
	return f.access(p, off, size, true)
}

func (f *File) access(p *sim.Proc, off, size int64, write bool) error {
	if size <= 0 {
		return fmt.Errorf("fsim: %s: access size %d must be positive", f.name, size)
	}
	if off < 0 || off+size > f.size {
		return fmt.Errorf("fsim: %s: access [%d,%d) out of bounds (size %d)", f.name, off, off+size, f.size)
	}
	if !write && f.fs.cfg.ReadAhead > 0 && f.fs.cache != nil {
		// Readahead decision: a sequential read that misses the cache is
		// extended by the readahead window; fully-cached reads and random
		// reads proceed as requested.
		sequential := f.ra.sequential(off)
		f.ra.update(off, off+size)
		if sequential && !f.allCached(off, size) {
			size += f.fs.cfg.ReadAhead
			if off+size > f.size {
				size = f.size - off
			}
		}
	}
	for size > 0 {
		devOff, runLen, err := f.mapOffset(off)
		if err != nil {
			return err
		}
		n := size
		if n > runLen {
			n = runLen
		}
		if err := f.fs.transfer(p, devOff, n, write); err != nil {
			return err
		}
		off += n
		size -= n
	}
	return nil
}

// allCached reports whether every page backing [off, off+size) is in the
// page cache, without updating recency or hit counters.
func (f *File) allCached(off, size int64) bool {
	bs := f.fs.cfg.BlockSize
	for size > 0 {
		devOff, runLen, err := f.mapOffset(off)
		if err != nil {
			return false
		}
		n := size
		if n > runLen {
			n = runLen
		}
		for pg := devOff / bs; pg <= (devOff+n-1)/bs; pg++ {
			if !f.fs.cache.Contains(pg) && !f.fs.isDirty(pg) {
				return false
			}
		}
		off += n
		size -= n
	}
	return true
}

// raState detects sequential streams on a file. Several concurrent
// readers may stream disjoint areas of the same file (e.g. segments of a
// shared striped file landing on one I/O server), so it keeps one cursor
// per stream, LRU-replaced, like kernel per-context readahead state.
type raState struct {
	ends  []int64 // last read end per detected stream
	uses  []uint64
	clock uint64
}

// maxStreams bounds the per-file cursor table.
const maxStreams = 64

// sequential reports whether a read at off continues a known stream.
func (s *raState) sequential(off int64) bool {
	if off == 0 {
		return true
	}
	for _, end := range s.ends {
		if end == off {
			return true
		}
	}
	return false
}

// update records the read [off, end), extending the matching stream
// cursor or opening a new one.
func (s *raState) update(off, end int64) {
	s.clock++
	for i, e := range s.ends {
		if e == off {
			s.ends[i] = end
			s.uses[i] = s.clock
			return
		}
	}
	if len(s.ends) < maxStreams {
		s.ends = append(s.ends, end)
		s.uses = append(s.uses, s.clock)
		return
	}
	oldest := 0
	for i, u := range s.uses {
		if u < s.uses[oldest] {
			oldest = i
		}
	}
	s.ends[oldest] = end
	s.uses[oldest] = s.clock
}

// mapOffset translates a file offset to (device offset, contiguous bytes
// remaining in the extent).
func (f *File) mapOffset(off int64) (devOff, runLen int64, err error) {
	for _, e := range f.extents {
		if off >= e.fileOff && off < e.fileOff+e.length {
			return e.devOff + (off - e.fileOff), e.fileOff + e.length - off, nil
		}
	}
	return 0, 0, fmt.Errorf("fsim: %s: offset %d not mapped", f.name, off)
}

// transfer moves a contiguous device range, consulting the cache.
func (fs *FileSystem) transfer(p *sim.Proc, devOff, size int64, write bool) error {
	if fs.cache == nil {
		fs.moved += size
		return fs.dev.Access(p, device.Request{Offset: devOff, Size: size, Write: write})
	}
	return fs.cachedTransfer(p, devOff, size, write)
}

// cachedTransfer handles the page-granular cache protocol: hits cost
// memory time; runs of missing pages coalesce into single device requests.
// Writes are write-through and populate the cache.
func (fs *FileSystem) cachedTransfer(p *sim.Proc, devOff, size int64, write bool) error {
	bs := fs.cfg.BlockSize
	first := devOff / bs
	last := (devOff + size - 1) / bs

	if write {
		if fs.dirty != nil {
			// Write-back: dirty the pages and pay only the memory copy.
			wasClean := len(fs.dirty) == 0
			for pg := first; pg <= last; pg++ {
				fs.dirty[pg] = true
			}
			if wasClean {
				fs.flushSignal.Put(struct{}{})
			}
			p.Sleep(fs.cfg.CacheHitLatency + sim.TransferTime(size, fs.cfg.MemRate))
			return nil
		}
		fs.moved += size
		if err := fs.dev.Access(p, device.Request{Offset: devOff, Size: size, Write: true}); err != nil {
			return err
		}
		for pg := first; pg <= last; pg++ {
			fs.cache.Insert(pg)
		}
		return nil
	}

	var hitBytes int64
	missStart := int64(-1)
	flushMisses := func(endPage int64) error {
		if missStart < 0 {
			return nil
		}
		start := missStart * bs
		n := (endPage - missStart) * bs
		fs.moved += n
		if err := fs.dev.Access(p, device.Request{Offset: start, Size: n}); err != nil {
			return err
		}
		for pg := missStart; pg < endPage; pg++ {
			fs.cache.Insert(pg)
		}
		missStart = -1
		return nil
	}
	for pg := first; pg <= last; pg++ {
		if fs.cache.Lookup(pg) || fs.isDirty(pg) {
			if err := flushMisses(pg); err != nil {
				return err
			}
			hitBytes += bs
		} else if missStart < 0 {
			missStart = pg
		}
	}
	if err := flushMisses(last + 1); err != nil {
		return err
	}
	if hitBytes > 0 {
		p.Sleep(fs.cfg.CacheHitLatency + sim.TransferTime(hitBytes, fs.cfg.MemRate))
	}
	return nil
}

func roundUp(v, unit int64) int64 {
	return (v + unit - 1) / unit * unit
}
