// Package fsim simulates a local file system on top of a simulated block
// device: each file is one contiguous, block-aligned run of device bytes,
// plus an optional write-through LRU page cache that can be flushed
// explicitly (the BPS paper flushes all caches before each run).
package fsim

import (
	"fmt"

	"bps/internal/device"
	"bps/internal/ioreq"
	"bps/internal/sim"
)

// Config parameterizes a local file system.
type Config struct {
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
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 4096
	}
	if c.MemRate <= 0 {
		c.MemRate = 5e9
	}
	if c.CacheHitLatency <= 0 {
		c.CacheHitLatency = sim.Microsecond
	}
	return c
}

// FileSystem is a simulated local file system bound to one device.
type FileSystem struct {
	dev      device.Device
	cfg      Config
	files    map[string]*File
	nextFree int64
	cache    *ioreq.LRU

	moved int64 // bytes actually transferred to/from the device
}

// New constructs a file system on dev.
func New(dev device.Device, cfg Config) *FileSystem {
	cfg = cfg.withDefaults()
	fs := &FileSystem{
		dev:   dev,
		cfg:   cfg,
		files: make(map[string]*File),
	}
	if cfg.CacheBytes > 0 {
		fs.cache = ioreq.NewLRU(cfg.CacheBytes / cfg.BlockSize)
	}
	return fs
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

// File is an open file, stored as one contiguous run of device bytes.
type File struct {
	fs     *FileSystem
	name   string
	size   int64
	devOff int64 // device offset of the file's first byte
	ra     raState
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
	f := &File{fs: fs, name: name, size: size, devOff: fs.nextFree}
	fs.nextFree += alloc
	fs.files[name] = f
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
	return f.fs.transfer(p, f.devOff+off, size, write)
}

// allCached reports whether every page backing [off, off+size) is in the
// page cache, without updating recency or hit counters.
func (f *File) allCached(off, size int64) bool {
	bs := f.fs.cfg.BlockSize
	devOff := f.devOff + off
	for pg := devOff / bs; pg <= (devOff+size-1)/bs; pg++ {
		if !f.fs.cache.Contains(pg) {
			return false
		}
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
		if fs.cache.Lookup(pg) {
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
