package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bps"
	"bps/internal/obs/forecast"
	"bps/internal/obs/serve"
	"bps/internal/sim"
)

// BenchmarkJobsSubmit measures the POST /jobs hot path — body decode
// (through the pooled buffers), validation, and enqueue — without the
// scheduler, network, or a simulation. Each iteration immediately
// retires the accepted job so the queue and job table stay constant
// size; that cleanup is constant-time and part of the measured path.
func BenchmarkJobsSubmit(b *testing.B) {
	opts := options{
		seed: 1, procs: 2, mb: 2, record: 1 << 20,
		maxJobs: 8, batchWait: time.Second, grace: 30 * time.Second,
	}
	storage := bps.Storage{Media: bps.HDD, Servers: 2, SharedFile: true}
	mgr := newJobManager(opts, storage, func() *bps.ObserveOptions { return nil }, io.Discard)
	body := []byte(`{"tenant":"bench","priority":1,"procs":2,"mb":4,"record_bytes":1048576}`)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		mgr.handleSubmit(rec, req)
		if rec.Code != http.StatusAccepted {
			b.Fatalf("submit %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		mgr.mu.Lock()
		mgr.queue = mgr.queue[:0]
		delete(mgr.jobs, mgr.nextID-1)
		mgr.mu.Unlock()
	}
}

// BenchmarkBpsdBatch measures one two-tenant job batch the way the
// daemon runs it: 2 tenants × 2 procs × 16 MiB in 64 KiB records on
// hddx4, one reading and one writing, with the default 1 ms sampler and
// 10 ms windows feeding the publisher hook. One publisher serves every
// iteration, as it serves every batch of a daemon, so each batch also
// crosses a run boundary.
func BenchmarkBpsdBatch(b *testing.B) {
	opts := options{seed: 1, maxJobs: 8, batchWait: time.Second, grace: 30 * time.Second}
	storage, err := bps.ParseStorage("hddx4")
	if err != nil {
		b.Fatal(err)
	}
	pub := serve.NewPublisher("bench", forecast.Config{BurstK: 2.5})
	observe := &bps.ObserveOptions{
		SampleEvery: sim.Millisecond,
		WindowEvery: 10 * sim.Millisecond,
		Tick:        pub.Hook(),
	}
	mgr := newJobManager(opts, storage, func() *bps.ObserveOptions { return observe }, io.Discard)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := []*job{
			{ID: 1, jobSubmit: jobSubmit{Tenant: "a", Priority: 1, Procs: 2, MB: 16, RecordBytes: 64 << 10}, Batch: 1},
			{ID: 2, jobSubmit: jobSubmit{Tenant: "b", Priority: 1, Procs: 2, MB: 16, RecordBytes: 64 << 10, Write: true}, Batch: 1},
		}
		mgr.running += len(batch)
		mgr.runBatch(batch)
		for _, j := range batch {
			if j.State != stateDone {
				b.Fatalf("job %d ended %s: %s", j.ID, j.State, j.Error)
			}
		}
	}
}
