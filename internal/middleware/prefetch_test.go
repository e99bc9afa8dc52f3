package middleware

import (
	"testing"

	"bps/internal/ioreq"
	"bps/internal/sim"
)

// recordedReq is one request a scriptLayer saw.
type recordedReq struct {
	Op   ioreq.Op
	Off  int64
	Size int64
	ID   uint64
}

// scriptLayer records every request it serves, so tests can assert the
// exact sub-requests a readahead layer emits downstream.
type scriptLayer struct {
	reqs []recordedReq
}

func (s *scriptLayer) Serve(p *sim.Proc, req *ioreq.Request) error {
	s.reqs = append(s.reqs, recordedReq{req.Op, req.Off, req.Size, req.ID})
	return nil
}

// countLayer counts the requests and bytes that reach the layer below.
type countLayer struct {
	ioreq.Layer
	n, bytes int64
}

func (c *countLayer) Serve(p *sim.Proc, req *ioreq.Request) error {
	c.n++
	c.bytes += req.Size
	return c.Layer.Serve(p, req)
}

// prefetchSetup builds a Prefetcher over a recording layer and runs body
// in a simulated process.
func prefetchSetup(t *testing.T, fileSize, window int64, body func(p *sim.Proc, tgt Target, rec *scriptLayer)) {
	t.Helper()
	e := sim.NewEngine(1)
	rec := &scriptLayer{}
	target := NewTarget(rec, "f", fileSize)
	tgt := target.With(NewPrefetcher(target, window))
	e.Spawn("app", func(p *sim.Proc) { body(p, tgt, rec) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchWindowClampsAtEOF(t *testing.T) {
	const (
		fileSize = 160 << 10
		window   = 64 << 10
		rec      = 32 << 10
	)
	prefetchSetup(t, fileSize, window, func(p *sim.Proc, tgt Target, inner *scriptLayer) {
		for off := int64(0); off < fileSize; off += rec {
			if err := tgt.ReadAt(p, off, rec); err != nil {
				t.Fatal(err)
			}
		}
		// 5 sequential reads collapse to 2 fetches: one full demand+window
		// fetch and one clamped at EOF.
		want := []recordedReq{
			{ioreq.OpRead, 0, rec + window, inner.reqs[0].ID},
			{ioreq.OpRead, 96 << 10, fileSize - 96<<10, inner.reqs[1].ID},
		}
		if len(inner.reqs) != len(want) {
			t.Fatalf("inner saw %d requests (%+v), want %d", len(inner.reqs), inner.reqs, len(want))
		}
		for i, r := range inner.reqs {
			if r != want[i] {
				t.Fatalf("inner request %d = %+v, want %+v", i, r, want[i])
			}
		}
	})
}

func TestPrefetchNeverShrinksDemand(t *testing.T) {
	// A demand that itself crosses EOF must be forwarded whole: the
	// clamp bounds the readahead, never the application's request.
	const (
		fileSize = 64 << 10
		window   = 64 << 10
	)
	prefetchSetup(t, fileSize, window, func(p *sim.Proc, tgt Target, inner *scriptLayer) {
		if err := tgt.ReadAt(p, 0, 48<<10); err != nil {
			t.Fatal(err)
		}
		// Sequential follow-up read larger than the bytes left in the
		// file: fetch clamps to 16 KiB, which is below the demand, so
		// the guard restores the full 32 KiB.
		if err := tgt.ReadAt(p, 48<<10, 32<<10); err != nil {
			t.Fatal(err)
		}
		want := []recordedReq{
			{ioreq.OpRead, 0, fileSize, inner.reqs[0].ID}, // demand+window clamped to file end
			{ioreq.OpRead, 48 << 10, 32 << 10, inner.reqs[1].ID},
		}
		if len(inner.reqs) != 2 || inner.reqs[0] != want[0] || inner.reqs[1] != want[1] {
			t.Fatalf("inner requests = %+v, want %+v", inner.reqs, want)
		}
	})
}

func TestPrefetchWriteInvalidatesStaging(t *testing.T) {
	const (
		fileSize = 1 << 20
		window   = 64 << 10
		rec      = 16 << 10
	)
	prefetchSetup(t, fileSize, window, func(p *sim.Proc, tgt Target, inner *scriptLayer) {
		if err := tgt.ReadAt(p, 0, rec); err != nil { // stages [0, 80K)
			t.Fatal(err)
		}
		if err := tgt.WriteAt(p, 0, rec); err != nil { // invalidates
			t.Fatal(err)
		}
		if err := tgt.ReadAt(p, rec, rec); err != nil { // would have been a hit
			t.Fatal(err)
		}
		if len(inner.reqs) != 3 {
			t.Fatalf("inner saw %d requests (%+v), want 3", len(inner.reqs), inner.reqs)
		}
		if inner.reqs[1].Op != ioreq.OpWrite || inner.reqs[1].Size != rec {
			t.Fatalf("write forwarded as %+v", inner.reqs[1])
		}
		// The post-write read is sequential, so it refetches with readahead.
		if r := inner.reqs[2]; r.Op != ioreq.OpRead || r.Off != rec || r.Size != rec+window {
			t.Fatalf("post-write read = %+v, want refetch of %d+window", r, rec)
		}
	})
}

func TestPrefetchRandomReadSkipsReadahead(t *testing.T) {
	const (
		fileSize = 256 << 10
		window   = 64 << 10
		rec      = 16 << 10
	)
	prefetchSetup(t, fileSize, window, func(p *sim.Proc, tgt Target, inner *scriptLayer) {
		if err := tgt.ReadAt(p, 0, rec); err != nil { // stages [0, 80K)
			t.Fatal(err)
		}
		if err := tgt.ReadAt(p, 128<<10, rec); err != nil { // random jump
			t.Fatal(err)
		}
		if err := tgt.ReadAt(p, rec, rec); err != nil { // staging was dropped
			t.Fatal(err)
		}
		// The jump and the post-jump read are both exact-size reads: no
		// readahead without sequentiality, and the jump cleared staging.
		if len(inner.reqs) != 3 {
			t.Fatalf("inner saw %d requests (%+v), want 3", len(inner.reqs), inner.reqs)
		}
		if r := inner.reqs[1]; r.Off != 128<<10 || r.Size != rec {
			t.Fatalf("random read = %+v, want exact-size passthrough", r)
		}
		if r := inner.reqs[2]; r.Off != rec || r.Size != rec {
			t.Fatalf("post-jump read = %+v, want exact-size passthrough", r)
		}
	})
}
