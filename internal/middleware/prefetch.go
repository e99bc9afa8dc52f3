package middleware

import (
	"bps/internal/ioreq"
	"bps/internal/sim"
)

// Prefetcher is a sequential-readahead layer: when read requests arrive
// in ascending adjacent order it fetches Window bytes ahead into a
// client-side staging buffer, so later sequential reads are served at
// memory speed. Like data sieving, this is an optimization that moves
// *more* data through the I/O system than the application requires — the
// second source of BW/BPS divergence the paper names (§I, prefetching
// [13,14]). Fetch sub-requests keep the demand request's identity. A
// Prefetcher serves one process, whose calls are sequential.
type Prefetcher struct {
	inner ioreq.Layer
	size  int64 // file size, bounds the readahead window

	// Window is the readahead size (default 4 MiB).
	Window int64

	// MemRate is the staging-buffer copy rate (default 5 GB/s).
	MemRate float64

	// staged is the half-open prefetched range.
	stagedLo, stagedHi int64
	lastEnd            int64

	// fetch is the one readahead request the prefetcher owns: the value
	// form of req.Child, refilled per sequential miss and done with
	// before Serve returns.
	fetch ioreq.Request
}

// NewPrefetcher builds a readahead layer in front of target's pipeline;
// install it with target.With(pf).
func NewPrefetcher(target Target, window int64) *Prefetcher {
	if window <= 0 {
		window = 4 << 20
	}
	return &Prefetcher{inner: target.Layer(), size: target.Size(), Window: window, MemRate: 5e9}
}

// Serve implements ioreq.Layer. Writes bypass and invalidate the
// staging buffer (keeping the model conservative).
func (pf *Prefetcher) Serve(p *sim.Proc, req *ioreq.Request) error {
	if req.Op == ioreq.OpWrite {
		pf.stagedLo, pf.stagedHi = 0, 0
		return pf.inner.Serve(p, req)
	}
	off, size := req.Off, req.Size
	if off >= pf.stagedLo && off+size <= pf.stagedHi {
		// Full staging-buffer hit: memory-speed copy.
		p.Sleep(sim.TransferTime(size, pf.MemRate))
		pf.lastEnd = off + size
		return nil
	}
	sequential := off == pf.lastEnd
	pf.lastEnd = off + size

	if !sequential {
		pf.stagedLo, pf.stagedHi = 0, 0
		return pf.inner.Serve(p, req)
	}
	// Sequential miss: fetch the demand plus the readahead window.
	fetch := size + pf.Window
	if off+fetch > pf.size {
		fetch = pf.size - off
	}
	if fetch < size {
		fetch = size
	}
	pf.fetch = *req
	pf.fetch.Off, pf.fetch.Size = off, fetch
	if err := pf.inner.Serve(p, &pf.fetch); err != nil {
		return err
	}
	pf.stagedLo, pf.stagedHi = off, off+fetch
	return nil
}
