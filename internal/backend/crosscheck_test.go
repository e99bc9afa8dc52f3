package backend

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"
)

// flagMixes is every open mode the cross-check draws from: each access
// mode alone, with O_CREATE, O_CREATE|O_EXCL and (when writable)
// O_TRUNC with and without O_CREATE. O_RDONLY|O_TRUNC is left out: its
// effect is unspecified by POSIX.
var flagMixes = []int{
	os.O_RDONLY,
	os.O_WRONLY,
	os.O_RDWR,
	os.O_RDONLY | os.O_CREATE,
	os.O_WRONLY | os.O_CREATE,
	os.O_RDWR | os.O_CREATE,
	os.O_RDONLY | os.O_CREATE | os.O_EXCL,
	os.O_WRONLY | os.O_CREATE | os.O_EXCL,
	os.O_RDWR | os.O_CREATE | os.O_EXCL,
	os.O_WRONLY | os.O_TRUNC,
	os.O_RDWR | os.O_TRUNC,
	os.O_WRONLY | os.O_CREATE | os.O_TRUNC,
	os.O_RDWR | os.O_CREATE | os.O_TRUNC,
}

// crossNames is the closed set of names the sequence draws from, so
// collisions (EEXIST, ENOTDIR, EISDIR, ...) actually happen: flat
// names, nested names under a missing or a regular-file parent, dot
// segments, and the root under two spellings.
var crossNames = []string{
	"a.dat", "b.dat", "d1", "d1/c.dat", "d1/d2", "d1/d2/e.dat",
	"d1/../a.dat", "./b.dat", "d1//c.dat", "a.dat/x", ".", "/",
}

// TestCrossCheckRandomOps drives identical pseudo-random operation
// sequences through memfs and osfs and requires them to agree at every
// step: same success/failure, same error string, same byte counts and
// contents, same handle metadata — and at the end, the same set of
// files with identical sizes and contents. The operations are the
// surface live runs use: OpenFile, then ReadAt, WriteAt, Truncate,
// Stat and Close on the handle, closed handles included. This is the
// property that makes the in-memory backend a faithful stand-in for a
// real directory in live runs.
func TestCrossCheckRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			crossCheck(t, seed, 400)
		})
	}
}

// pairFile is a handle open on both backends at once.
type pairFile struct {
	name     string
	mem, osf File
}

func crossCheck(t *testing.T, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mem := NewMemFS()
	dir := t.TempDir()
	osb := NewOSFS(dir, false)
	var open []*pairFile

	for step := 0; step < steps; step++ {
		switch rng.Intn(9) {
		case 0, 1: // open
			name := crossNames[rng.Intn(len(crossNames))]
			flag := flagMixes[rng.Intn(len(flagMixes))]
			mf, memErr := mem.OpenFile(name, flag, 0o644)
			of, osErr := osb.OpenFile(name, flag, 0o644)
			if sameErr(t, step, fmt.Sprintf("open %s flag %#x", name, flag), memErr, osErr) {
				open = append(open, &pairFile{name: name, mem: mf, osf: of})
			}
		case 2, 3: // write through an open pair
			if len(open) == 0 {
				continue
			}
			p := open[rng.Intn(len(open))]
			data := make([]byte, 1+rng.Intn(2048))
			rng.Read(data)
			off := rng.Int63n(8192)
			mn, memErr := p.mem.WriteAt(data, off)
			on, osErr := p.osf.WriteAt(data, off)
			sameErr(t, step, "write "+p.name, memErr, osErr)
			if mn != on {
				t.Fatalf("step %d write %s: wrote %d vs %d bytes", step, p.name, mn, on)
			}
		case 4, 5: // read through an open pair
			if len(open) == 0 {
				continue
			}
			p := open[rng.Intn(len(open))]
			mbuf := make([]byte, 1+rng.Intn(2048))
			obuf := make([]byte, len(mbuf))
			off := rng.Int63n(8192)
			mn, memErr := p.mem.ReadAt(mbuf, off)
			on, osErr := p.osf.ReadAt(obuf, off)
			sameErr(t, step, "read "+p.name, memErr, osErr)
			if mn != on {
				t.Fatalf("step %d read %s at %d: read %d vs %d bytes", step, p.name, off, mn, on)
			}
			if !bytes.Equal(mbuf[:mn], obuf[:on]) {
				t.Fatalf("step %d read %s at %d: contents diverge", step, p.name, off)
			}
		case 6: // truncate through an open pair
			if len(open) == 0 {
				continue
			}
			p := open[rng.Intn(len(open))]
			size := rng.Int63n(4096)
			sameErr(t, step, "truncate "+p.name, p.mem.Truncate(size), p.osf.Truncate(size))
		case 7: // stat through an open pair
			if len(open) == 0 {
				continue
			}
			p := open[rng.Intn(len(open))]
			mfi, memErr := p.mem.Stat()
			ofi, osErr := p.osf.Stat()
			if sameErr(t, step, "stat "+p.name, memErr, osErr) {
				sameInfo(t, fmt.Sprintf("step %d stat %s", step, p.name), mfi, ofi)
			}
		case 8: // close; half the closed pairs stay drawable, so later
			// operations (a second close included) hit closed handles
			if len(open) == 0 {
				continue
			}
			i := rng.Intn(len(open))
			p := open[i]
			sameErr(t, step, "close "+p.name, p.mem.Close(), p.osf.Close())
			if rng.Intn(2) == 0 {
				open = append(open[:i], open[i+1:]...)
			}
		}
	}
	for _, p := range open {
		p.mem.Close()
		p.osf.Close()
	}
	compareFiles(t, mem, osb, dir, crossNames)
	if mem.Moved() != osb.Moved() {
		t.Fatalf("moved bytes diverge: memfs %d, osfs %d", mem.Moved(), osb.Moved())
	}
}

// sameErr requires memErr and osErr to agree: both nil, both the bare
// io.EOF, or PathErrors rendering to the same string. It reports
// whether both succeeded.
func sameErr(t *testing.T, step int, op string, memErr, osErr error) bool {
	t.Helper()
	if (memErr == nil) != (osErr == nil) {
		t.Fatalf("step %d %s: memfs err %v, osfs err %v", step, op, memErr, osErr)
	}
	if memErr == nil {
		return true
	}
	if errors.Is(memErr, io.EOF) || errors.Is(osErr, io.EOF) {
		if memErr != osErr {
			t.Fatalf("step %d %s: EOF divergence: memfs %v, osfs %v", step, op, memErr, osErr)
		}
		return false
	}
	if memErr.Error() != osErr.Error() {
		t.Fatalf("step %d %s: error divergence:\n  memfs: %v\n  osfs:  %v", step, op, memErr, osErr)
	}
	return false
}

// sameInfo compares handle metadata: kind always, and name and size for
// regular files (a directory's size and the root's name are host
// details).
func sameInfo(t *testing.T, what string, mfi, ofi fs.FileInfo) {
	t.Helper()
	if mfi.IsDir() != ofi.IsDir() {
		t.Fatalf("%s: memfs dir=%v, osfs dir=%v", what, mfi.IsDir(), ofi.IsDir())
	}
	if !mfi.IsDir() && (mfi.Name() != ofi.Name() || mfi.Size() != ofi.Size()) {
		t.Fatalf("%s: memfs %s (%d bytes) vs osfs %s (%d bytes)",
			what, mfi.Name(), mfi.Size(), ofi.Name(), ofi.Size())
	}
}

// compareFiles requires both backends to hold the same files: the host
// directory's entries match memfs's table, and every name in names
// opens read-only with the same outcome, metadata and contents.
func compareFiles(t *testing.T, mem *MemFS, osb *OSFS, dir string, names []string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, inMem []string
	for _, e := range ents {
		onDisk = append(onDisk, e.Name())
	}
	for key := range mem.files {
		if key != "" {
			inMem = append(inMem, key)
		}
	}
	sort.Strings(inMem)
	if fmt.Sprint(onDisk) != fmt.Sprint(inMem) {
		t.Fatalf("file sets diverge: memfs %v, osfs %v", inMem, onDisk)
	}
	for _, name := range names {
		mf, memErr := mem.OpenFile(name, os.O_RDONLY, 0)
		of, osErr := osb.OpenFile(name, os.O_RDONLY, 0)
		if !sameErr(t, -1, "final open "+name, memErr, osErr) {
			continue
		}
		mfi, _ := mf.Stat()
		ofi, _ := of.Stat()
		sameInfo(t, "final stat "+name, mfi, ofi)
		if !mfi.IsDir() {
			if mdata, odata := readAll(t, mf, mfi.Size()), readAll(t, of, ofi.Size()); !bytes.Equal(mdata, odata) {
				t.Fatalf("final %s: contents diverge (%d bytes)", name, len(mdata))
			}
		}
		mf.Close()
		of.Close()
	}
}

func readAll(t *testing.T, f File, size int64) []byte {
	t.Helper()
	buf := make([]byte, size)
	if size == 0 {
		return buf
	}
	n, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return buf[:n]
}

// TestCrossCheckConcurrent runs one writer goroutine per file on both
// backends — the live driver's sharing shape (distinct open files,
// shared FS) — then requires identical contents. Run with -race this
// also proves the memfs locking discipline.
func TestCrossCheckConcurrent(t *testing.T) {
	const workers = 8
	const writes = 64
	mem := NewMemFS()
	dir := t.TempDir()
	osb := NewOSFS(dir, false)
	var names []string
	for w := 0; w < workers; w++ {
		names = append(names, fmt.Sprintf("slot%04d.dat", w))
	}
	for _, fsys := range []FS{mem, osb} {
		var wg sync.WaitGroup
		for w, name := range names {
			wg.Add(1)
			go func(w int, name string) {
				defer wg.Done()
				f, err := fsys.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
				if err != nil {
					t.Error(err)
					return
				}
				defer f.Close()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < writes; i++ {
					data := make([]byte, 512+rng.Intn(4096))
					rng.Read(data)
					if _, err := f.WriteAt(data, rng.Int63n(1<<16)); err != nil {
						t.Error(err)
						return
					}
					if _, err := f.ReadAt(make([]byte, 256), rng.Int63n(1<<15)); err != nil && err != io.EOF {
						t.Error(err)
						return
					}
				}
			}(w, name)
		}
		wg.Wait()
	}
	if t.Failed() {
		return
	}
	compareFiles(t, mem, osb, dir, names)
}

// TestOSFSRootEscape pins the containment property: a path stuffed with
// ".." still resolves inside the root, and errors carry the caller's
// name rather than the host path.
func TestOSFSRootEscape(t *testing.T) {
	dir := t.TempDir()
	osb := NewOSFS(dir, false)
	f, err := osb.OpenFile("../../../../escape.dat", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := os.Stat(dir + "/escape.dat"); err != nil {
		t.Fatalf("cleaned path not under root: %v", err)
	}
	var perr *fs.PathError
	_, err = osb.OpenFile("../../nope", os.O_RDONLY, 0)
	if err == nil || !errors.As(err, &perr) || perr.Path != "../../nope" || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("error path not rewritten to caller name: %v", err)
	}
}
