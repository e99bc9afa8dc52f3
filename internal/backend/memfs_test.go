package backend

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"
	"testing"
)

func TestMemFSReadWriteRoundtrip(t *testing.T) {
	m := NewMemFS()
	f, err := m.OpenFile("a.dat", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	want := []byte("hello, memfs")
	if n, err := f.WriteAt(want, 5); err != nil || n != len(want) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Size(); got != 5+int64(len(want)) {
		t.Fatalf("size after gap write = %d, want %d", got, 5+len(want))
	}

	// The gap is zero-filled.
	head := make([]byte, 5)
	if _, err := f.ReadAt(head, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range head {
		if b != 0 {
			t.Fatalf("gap byte %d = %#x, want 0", i, b)
		}
	}
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 5); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("ReadAt = %q, want %q", got, want)
	}
}

func TestMemFSPreadSemantics(t *testing.T) {
	m := NewMemFS()
	f, _ := m.OpenFile("a.dat", os.O_RDWR|os.O_CREATE, 0o644)
	defer f.Close()
	f.WriteAt([]byte("0123456789"), 0)

	// Short read at the tail returns (n, io.EOF).
	buf := make([]byte, 8)
	n, err := f.ReadAt(buf, 6)
	if n != 4 || err != io.EOF {
		t.Fatalf("short ReadAt = %d, %v; want 4, io.EOF", n, err)
	}
	// Read past EOF returns (0, io.EOF).
	n, err = f.ReadAt(buf, 100)
	if n != 0 || err != io.EOF {
		t.Fatalf("past-EOF ReadAt = %d, %v; want 0, io.EOF", n, err)
	}
	// Exact read returns nil error, matching (*os.File).ReadAt.
	n, err = f.ReadAt(buf[:4], 6)
	if n != 4 || err != nil {
		t.Fatalf("exact-tail ReadAt = %d, %v; want 4, nil", n, err)
	}
}

func TestMemFSTruncate(t *testing.T) {
	m := NewMemFS()
	f, _ := m.OpenFile("a.dat", os.O_RDWR|os.O_CREATE, 0o644)
	defer f.Close()
	f.WriteAt([]byte("secretdata"), 0)

	// Shrink, then regrow past the old length: the regrown region must
	// be zeros, not the stale bytes (cap reuse would otherwise leak).
	if err := f.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(10); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf[:3]) != "sec" {
		t.Fatalf("prefix = %q, want %q", buf[:3], "sec")
	}
	for i, b := range buf[3:] {
		if b != 0 {
			t.Fatalf("regrown byte %d = %#x, want 0 (stale data leaked)", 3+i, b)
		}
	}

	// Truncating to a negative size is EINVAL.
	if err := f.Truncate(-1); !errors.Is(err, syscall.EINVAL) {
		t.Fatalf("Truncate(-1) = %v, want EINVAL", err)
	}
}

func TestMemFSOpenTrunc(t *testing.T) {
	m := NewMemFS()
	f, _ := m.OpenFile("a.dat", os.O_RDWR|os.O_CREATE, 0o644)
	f.WriteAt([]byte("data"), 0)
	f.Close()

	g, err := m.OpenFile("a.dat", os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	fi, _ := g.Stat()
	if fi.Size() != 0 {
		t.Fatalf("size after O_TRUNC = %d, want 0", fi.Size())
	}
}

func TestMemFSAccessModes(t *testing.T) {
	m := NewMemFS()
	w, _ := m.OpenFile("a.dat", os.O_WRONLY|os.O_CREATE, 0o644)
	defer w.Close()
	if _, err := w.ReadAt(make([]byte, 1), 0); !errors.Is(err, syscall.EBADF) {
		t.Fatalf("read of O_WRONLY handle = %v, want EBADF", err)
	}
	r, _ := m.OpenFile("a.dat", os.O_RDONLY, 0o644)
	defer r.Close()
	if _, err := r.WriteAt([]byte("x"), 0); !errors.Is(err, syscall.EBADF) {
		t.Fatalf("write of O_RDONLY handle = %v, want EBADF", err)
	}
}

func TestMemFSClosedHandle(t *testing.T) {
	m := NewMemFS()
	f, _ := m.OpenFile("a.dat", os.O_RDWR|os.O_CREATE, 0o644)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("read after close = %v, want ErrClosed", err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("write after close = %v, want ErrClosed", err)
	}
	if err := f.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("double close = %v, want ErrClosed", err)
	}
}

func TestMemFSMoved(t *testing.T) {
	m := NewMemFS()
	f, _ := m.OpenFile("a.dat", os.O_RDWR|os.O_CREATE, 0o644)
	defer f.Close()
	f.WriteAt(make([]byte, 1000), 0)
	f.ReadAt(make([]byte, 400), 0)
	if got := m.Moved(); got != 1400 {
		t.Fatalf("Moved = %d, want 1400", got)
	}
}

func TestMemFSPathCleaning(t *testing.T) {
	m := NewMemFS()
	f, err := m.OpenFile("../..//./a.dat", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("x"), 0)
	f.Close()
	// ".." cannot escape the root: the cleaned path is just "a.dat".
	g, err := m.OpenFile("a.dat", os.O_RDONLY, 0)
	if err != nil {
		t.Fatalf("open a.dat after dirty create = %v", err)
	}
	defer g.Close()
	if fi, err := g.Stat(); err != nil || fi.Size() != 1 {
		t.Fatalf("a.dat after dirty create: %v, %v; want 1 byte", fi, err)
	}
}

// TestErrorParity pins memfs error values — op, path, errno kind, and
// the full rendered string — against the os package (through OSFS on a
// real temp directory) for the measurement path's failure modes.
func TestErrorParity(t *testing.T) {
	setup := func(fsys FS) {
		f, err := fsys.OpenFile("file.dat", os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("data"), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		errno syscall.Errno
		do    func(fsys FS) error
	}{
		{"open-missing", syscall.ENOENT, func(f FS) error {
			_, err := f.OpenFile("missing.dat", os.O_RDONLY, 0)
			return err
		}},
		{"open-excl-existing", syscall.EEXIST, func(f FS) error {
			_, err := f.OpenFile("file.dat", os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
			return err
		}},
		{"open-dir-for-write", syscall.EISDIR, func(f FS) error {
			_, err := f.OpenFile(".", os.O_WRONLY, 0)
			return err
		}},
		{"open-under-missing-parent", syscall.ENOENT, func(f FS) error {
			_, err := f.OpenFile("nodir/file.dat", os.O_RDWR|os.O_CREATE, 0o644)
			return err
		}},
		{"open-through-file", syscall.ENOTDIR, func(f FS) error {
			_, err := f.OpenFile("file.dat/sub", os.O_RDONLY, 0)
			return err
		}},
		{"truncate-dir", syscall.EINVAL, func(f FS) error {
			h, err := f.OpenFile(".", os.O_RDONLY, 0)
			if err != nil {
				return err
			}
			defer h.Close()
			return h.Truncate(0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := NewMemFS()
			osb := NewOSFS(t.TempDir(), false)
			setup(mem)
			setup(osb)
			memErr := tc.do(mem)
			osErr := tc.do(osb)
			for which, err := range map[string]error{"memfs": memErr, "osfs": osErr} {
				if err == nil {
					t.Fatalf("%s: no error, want %v", which, tc.errno)
				}
				if !errors.Is(err, tc.errno) {
					t.Errorf("%s: error %v is not %v", which, err, tc.errno)
				}
				var perr *fs.PathError
				if !errors.As(err, &perr) {
					t.Fatalf("%s: %T is not *fs.PathError", which, err)
				}
			}
			if memErr.Error() != osErr.Error() {
				t.Errorf("error strings diverge:\n  memfs: %s\n  osfs:  %s", memErr, osErr)
			}
		})
	}
}
