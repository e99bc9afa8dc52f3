package backend

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"
	"testing"
)

// FuzzMemfsPath feeds arbitrary path strings through the surface live
// runs use and checks the structural invariants: no panic, every
// failure is a *fs.PathError carrying the caller-given name verbatim,
// and a successfully created file answers handle Stat, round-trips a
// write through read, closes, and is found again under the same
// (uncleaned) name.
func FuzzMemfsPath(f *testing.F) {
	for _, seed := range []string{
		"", ".", "..", "/", "//", "a", "/a", "a/b", "a//b", "a/./b",
		"../a", "a/../../b", "./", "a/", "slot0000.dat", "a\x00b",
		"very/deep/nested/path/file.dat", "...", "..a", "a..",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		m := NewMemFS()
		checkErr := func(op string, err error) {
			t.Helper()
			if err == nil || errors.Is(err, io.EOF) {
				return
			}
			var perr *fs.PathError
			if !errors.As(err, &perr) {
				t.Fatalf("%s(%q): %T is not *fs.PathError: %v", op, name, err, err)
			}
			if perr.Path != name {
				t.Fatalf("%s(%q): error path %q is not the caller-given name", op, name, perr.Path)
			}
		}

		h, err := m.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
		checkErr("open", err)
		if err != nil {
			// On an empty root the only refusals are the root itself (a
			// directory) and a nested name (no parent directory).
			if !errors.Is(err, syscall.EISDIR) && !errors.Is(err, syscall.ENOENT) {
				t.Fatalf("OpenFile(%q) on an empty root: %v", name, err)
			}
			return
		}
		if fi, err := h.Stat(); err != nil || fi.IsDir() || fi.Size() != 0 {
			t.Fatalf("Stat(%q) after create = %v, %v; want an empty file", name, fi, err)
		}
		if _, err := h.WriteAt([]byte{0xAB}, 3); err != nil {
			t.Fatalf("WriteAt on %q: %v", name, err)
		}
		buf := make([]byte, 1)
		if _, err := h.ReadAt(buf, 3); err != nil || buf[0] != 0xAB {
			t.Fatalf("round-trip through %q read %#x, %v", name, buf[0], err)
		}
		if fi, err := h.Stat(); err != nil || fi.Size() != 4 {
			t.Fatalf("Stat(%q) after write = %v, %v; want 4 bytes", name, fi, err)
		}
		if err := h.Close(); err != nil {
			t.Fatalf("Close(%q): %v", name, err)
		}

		// A closed handle refuses further use, naming the caller's path.
		_, err = h.Stat()
		checkErr("stat", err)
		if !errors.Is(err, os.ErrClosed) {
			t.Fatalf("Stat(%q) after close = %v, want ErrClosed", name, err)
		}
		err = h.Close()
		checkErr("close", err)
		if !errors.Is(err, os.ErrClosed) {
			t.Fatalf("second Close(%q) = %v, want ErrClosed", name, err)
		}

		// The raw name and its cleaned form key the same file, so
		// reopening through the raw name finds the byte.
		g, err := m.OpenFile(name, os.O_RDONLY, 0)
		if err != nil {
			t.Fatalf("reopen %q: %v", name, err)
		}
		defer g.Close()
		if _, err := g.ReadAt(buf, 3); err != nil || buf[0] != 0xAB {
			t.Fatalf("reopened %q read %#x, %v", name, buf[0], err)
		}
		if len(m.files) != 2 {
			t.Fatalf("creating %q left %d table entries, want the root and one file", name, len(m.files))
		}
	})
}
