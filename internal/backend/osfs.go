package backend

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sync/atomic"
)

// OSFS serves requests from a real directory rooted at a host
// path, using pread/pwrite (os.File.ReadAt/WriteAt). Paths are cleaned
// exactly like memfs paths — lexically, against a leading slash — so a
// caller-given name resolves to the same object on both backends and
// can never escape the root. Errors coming back from the kernel have
// their PathError.Path rewritten to the caller-given name, keeping osfs
// and memfs error values comparable field for field.
type OSFS struct {
	root   string
	direct bool
	moved  atomic.Int64
}

// NewOSFS returns a backend rooted at dir. When direct is true, data
// files are opened with O_DIRECT where the platform supports it
// (Linux), bypassing the page cache so measurements see device speeds.
func NewOSFS(dir string, direct bool) *OSFS {
	return &OSFS{root: dir, direct: direct}
}

// Name identifies the backend.
func (o *OSFS) Name() string { return "os" }

// Moved returns cumulative bytes transferred through read/write calls.
func (o *OSFS) Moved() int64 { return o.moved.Load() }

// hostPath maps a backend path to its host location under the root.
func (o *OSFS) hostPath(name string) string {
	return filepath.Join(o.root, filepath.FromSlash(path.Clean("/"+name)))
}

// rewrite replaces the host path inside an error with the caller-given
// name, so error values match memfs's byte for byte.
func rewrite(err error, name string) error {
	if perr, ok := err.(*fs.PathError); ok {
		perr.Path = name
		return perr
	}
	return err
}

// OpenFile opens name under the root with os.O_* flags.
func (o *OSFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(o.hostPath(name), flag|directFlag(o.direct), perm)
	if err != nil {
		return nil, rewrite(err, name)
	}
	return &osFile{f: f, fs: o, name: name}, nil
}

// osFile wraps *os.File to count moved bytes and keep caller-relative
// paths in errors.
type osFile struct {
	f    *os.File
	fs   *OSFS
	name string
}

func (f *osFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.f.ReadAt(p, off)
	f.fs.moved.Add(int64(n))
	return n, rewrite(err, f.name)
}

func (f *osFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.f.WriteAt(p, off)
	f.fs.moved.Add(int64(n))
	return n, rewrite(err, f.name)
}

func (f *osFile) Truncate(size int64) error { return rewrite(f.f.Truncate(size), f.name) }

func (f *osFile) Stat() (fs.FileInfo, error) {
	fi, err := f.f.Stat()
	return fi, rewrite(err, f.name)
}

func (f *osFile) Sync() error  { return rewrite(f.f.Sync(), f.name) }
func (f *osFile) Close() error { return rewrite(f.f.Close(), f.name) }
