package backend

import (
	"io"
	"io/fs"
	"os"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// MemFS is a flat in-memory filesystem: one root directory holding
// regular files, keyed by cleaned path. Live runs open only flat slot
// names (live.SlotName) and nothing can create a directory, so no tree
// is needed. The name table is guarded by one mutex; each file inode
// carries its own lock for data access, so concurrent workers reading
// and writing disjoint open files never contend on the table lock.
//
// Error values are constructed to be indistinguishable from the os
// package's on Linux over an empty root: *fs.PathError with the same Op
// string, the caller-given path verbatim, and a syscall.Errno kind
// (ENOENT, EEXIST, EISDIR, ENOTDIR, EBADF, EINVAL). The cross-check
// suite in crosscheck_test.go holds MemFS to that contract against a
// real directory.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*inode // cleaned path → inode; "" is the root
	moved atomic.Int64
}

// inode is one filesystem object: the root directory or a regular file.
// Data access takes the inode's own lock.
type inode struct {
	dir bool // the root only

	mu   sync.RWMutex // guards data
	data []byte
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: map[string]*inode{"": {dir: true}}}
}

// Name identifies the backend.
func (m *MemFS) Name() string { return "mem" }

// Moved returns cumulative bytes transferred through read/write calls.
func (m *MemFS) Moved() int64 { return m.moved.Load() }

// cleanKey cleans name into its table key relative to the root ("" for
// the root itself). Cleaning happens against a leading slash, so
// relative names, ".." and "." resolve exactly as the os backend
// resolves them under its root — and no name can escape it.
func cleanKey(name string) string { return path.Clean("/" + name)[1:] }

// OpenFile opens name with os.O_* flag semantics. Supported flags are
// the ones the measurement path uses: O_RDONLY/O_WRONLY/O_RDWR plus
// O_CREATE, O_EXCL and O_TRUNC.
func (m *MemFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	key := cleanKey(name)
	m.mu.Lock()
	defer m.mu.Unlock()

	node, ok := m.files[key]
	if first, _, nested := strings.Cut(key, "/"); !ok && nested {
		// Only the root is a directory: the first element of a nested
		// name is a regular file or missing.
		errno := syscall.ENOENT
		if _, isFile := m.files[first]; isFile {
			errno = syscall.ENOTDIR
		}
		return nil, &fs.PathError{Op: "open", Path: name, Err: errno}
	}
	switch {
	case ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: syscall.EEXIST}
	case !ok && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: syscall.ENOENT}
	case !ok:
		node = &inode{}
		m.files[key] = node
	}

	if node.dir && flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE) != 0 {
		return nil, &fs.PathError{Op: "open", Path: name, Err: syscall.EISDIR}
	}
	if !node.dir && flag&os.O_TRUNC != 0 {
		node.mu.Lock()
		node.data = node.data[:0]
		node.mu.Unlock()
	}
	return &memFile{fs: m, node: node, name: name, flag: flag}, nil
}

// resize grows or shrinks data to size. Callers hold node.mu.
func (n *inode) resize(size int64) {
	switch cur := int64(len(n.data)); {
	case size < cur:
		n.data = n.data[:size]
	case size > cur:
		if int64(cap(n.data)) >= size {
			grown := n.data[:size]
			clear(grown[cur:])
			n.data = grown
		} else {
			grown := make([]byte, size)
			copy(grown, n.data)
			n.data = grown
		}
	}
}

// info builds a FileInfo snapshot. Callers hold the relevant lock for a
// consistent size. ModTime is pinned to the zero instant so memfs runs
// stay byte-deterministic.
func (n *inode) info(name string) fs.FileInfo {
	fi := fileInfo{name: name, mode: 0o644}
	if n.dir {
		fi.mode = fs.ModeDir | 0o755
	} else {
		n.mu.RLock()
		fi.size = int64(len(n.data))
		n.mu.RUnlock()
	}
	return fi
}

// memFile is an open handle onto a MemFS inode.
type memFile struct {
	fs     *MemFS
	node   *inode
	name   string
	flag   int
	closed atomic.Bool
}

// readable reports whether the open mode permits reads.
func (f *memFile) readable() bool { return f.flag&(os.O_WRONLY|os.O_RDWR) != os.O_WRONLY }

// writable reports whether the open mode permits writes.
func (f *memFile) writable() bool { return f.flag&(os.O_WRONLY|os.O_RDWR) != 0 }

func (f *memFile) patherr(op string, err error) error {
	return &fs.PathError{Op: op, Path: f.name, Err: err}
}

// ReadAt implements io.ReaderAt with pread semantics: a read past EOF
// returns io.EOF, a short read returns (n, io.EOF).
func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, f.patherr("read", os.ErrClosed)
	}
	if !f.readable() {
		return 0, f.patherr("read", syscall.EBADF)
	}
	if f.node.dir {
		return 0, f.patherr("read", syscall.EISDIR)
	}
	if off < 0 {
		return 0, f.patherr("read", syscall.EINVAL)
	}
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	if off >= int64(len(f.node.data)) {
		if len(p) == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	f.fs.moved.Add(int64(n))
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt with pwrite semantics: writing past
// EOF extends the file, zero-filling any gap.
func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, f.patherr("write", os.ErrClosed)
	}
	if !f.writable() {
		return 0, f.patherr("write", syscall.EBADF)
	}
	if off < 0 {
		return 0, f.patherr("write", syscall.EINVAL)
	}
	if len(p) == 0 {
		return 0, nil
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(f.node.data)) {
		f.node.resize(end)
	}
	n := copy(f.node.data[off:], p)
	f.fs.moved.Add(int64(n))
	return n, nil
}

// Truncate resizes the open file.
func (f *memFile) Truncate(size int64) error {
	if f.closed.Load() {
		return f.patherr("truncate", os.ErrClosed)
	}
	if !f.writable() {
		return f.patherr("truncate", syscall.EINVAL)
	}
	if size < 0 {
		return f.patherr("truncate", syscall.EINVAL)
	}
	f.node.mu.Lock()
	f.node.resize(size)
	f.node.mu.Unlock()
	return nil
}

// Stat reports the file's current metadata.
func (f *memFile) Stat() (fs.FileInfo, error) {
	if f.closed.Load() {
		return nil, f.patherr("stat", os.ErrClosed)
	}
	return f.node.info(path.Base(path.Clean("/" + f.name))), nil
}

// Sync is a no-op: memory is the backing store.
func (f *memFile) Sync() error {
	if f.closed.Load() {
		return f.patherr("sync", os.ErrClosed)
	}
	return nil
}

// Close invalidates the handle; further operations return ErrClosed.
func (f *memFile) Close() error {
	if f.closed.Swap(true) {
		return f.patherr("close", os.ErrClosed)
	}
	return nil
}

// fileInfo is the immutable fs.FileInfo snapshot memfs hands out.
type fileInfo struct {
	name string
	size int64
	mode fs.FileMode
}

func (fi fileInfo) Name() string       { return fi.name }
func (fi fileInfo) Size() int64        { return fi.size }
func (fi fileInfo) Mode() fs.FileMode  { return fi.mode }
func (fi fileInfo) ModTime() time.Time { return time.Time{} }
func (fi fileInfo) IsDir() bool        { return fi.mode.IsDir() }
func (fi fileInfo) Sys() any           { return nil }
