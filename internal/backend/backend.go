// Package backend serves ioreq.Requests from real storage: a directory
// on the host filesystem (osfs) or a flat in-memory filesystem (memfs).
// Both implement the same FS interface — open a file by name, count the
// bytes moved — and return os-identical *fs.PathError values. The
// cross-check suite holds memfs to os parity on exactly the surface
// live runs use: OpenFile with every flag mix, then ReadAt, WriteAt,
// Truncate, Stat and Close on the handle, asserting agreement on
// contents, sizes, byte counts and error strings over a small closed
// set of names (including nested names, dot segments and the root).
// A backend plugs into the measurement stack through FileLayer, which
// adapts an open File to an ioreq.Layer — the live driver then wraps it
// with the exact middleware chain (trace, stats, retry, cache) a
// simulated device stack uses.
package backend

import (
	"io"
	"io/fs"
	"sync"
	"unsafe"
)

// File is an open backend file. It mirrors the subset of *os.File the
// measurement path needs; memfs files implement it in memory with
// identical semantics.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Truncate changes the file's size; extension zero-fills.
	Truncate(size int64) error
	// Stat reports the file's current metadata.
	Stat() (fs.FileInfo, error)
	// Sync flushes buffered state to the backing store (no-op on memfs).
	Sync() error
}

// FS is the filesystem a live run measures against: it opens files by
// name and counts the bytes moved. Paths are slash-separated and
// interpreted relative to the filesystem root; leading slashes and dot
// segments are cleaned lexically, and a path can never escape the root
// ("../x" resolves to "/x"). Errors are *fs.PathError values with the
// same Op, caller-given Path, and Err kind the os package would return.
//
// Implementations are safe for concurrent use: opens are serialized per
// FS, data operations per file.
type FS interface {
	// Name identifies the backend ("mem", "os") for reports.
	Name() string
	// OpenFile opens name with os.O_* flags, creating with perm.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Moved returns the cumulative bytes actually transferred through
	// the backend (reads + writes), the movedBytes input to BW.
	Moved() int64
}

// chunkSize bounds the buffer a single pread/pwrite uses; larger
// requests are served in chunkSize pieces so a block-size sweep cannot
// allocate per-request buffers proportional to the largest record.
const chunkSize = 1 << 20

// chunkAlign is the alignment of pooled buffers. O_DIRECT on Linux
// requires the user buffer to be logical-block-size aligned; 4096
// covers every common device.
const chunkAlign = 4096

// bufPool recycles aligned chunkSize transfer buffers across requests
// and workers, keeping the per-op hot path allocation-free.
var bufPool = sync.Pool{
	New: func() any {
		b := alignedBuf(chunkSize, chunkAlign)
		return &b
	},
}

// alignedBuf returns a size-byte slice whose base address is aligned to
// align, carved out of a slightly larger allocation.
func alignedBuf(size, align int) []byte {
	raw := make([]byte, size+align)
	off := 0
	if a := addrOf(raw) % uintptr(align); a != 0 {
		off = align - int(a)
	}
	return raw[off : off+size : off+size]
}

// addrOf returns the base address of b's backing array.
func addrOf(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

// getBuf leases a pooled aligned buffer of at most chunkSize bytes.
func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// putBuf returns a leased buffer to the pool.
func putBuf(b *[]byte) { bufPool.Put(b) }
