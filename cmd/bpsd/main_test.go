package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bps"
	"bps/internal/obs/forecast"
	"bps/internal/obs/serve"
)

func TestValidateFlags(t *testing.T) {
	valid := options{
		stack: "hddx4", window: 0.01, sample: 0.001, burstK: 2.5,
		procs: 4, mb: 64, record: 1 << 20,
		jobs: true, maxJobs: 32, batchWait: 50 * time.Millisecond, grace: 10 * time.Second,
	}
	cases := []struct {
		name    string
		mutate  func(*options)
		logs    []string
		set     []string // flags "explicitly passed"
		wantErr string   // "" = valid
	}{
		{name: "defaults", mutate: func(o *options) {}},
		{name: "replay", mutate: func(o *options) {}, logs: []string{"x.csv"}},
		{name: "explicit positive pace", mutate: func(o *options) { o.pace = time.Millisecond }, set: []string{"pace"}},
		{name: "loop without jobs", mutate: func(o *options) { o.loop = true; o.jobs = false }},
		{name: "negative pace", mutate: func(o *options) { o.pace = -time.Second }, wantErr: "-pace"},
		{name: "explicit zero pace", mutate: func(o *options) {}, set: []string{"pace"}, wantErr: "-pace"},
		{name: "loop with finite replay", mutate: func(o *options) { o.loop = true; o.jobs = false }, logs: []string{"x.csv"}, wantErr: "finite log replay"},
		{name: "loop with jobs", mutate: func(o *options) { o.loop = true }, wantErr: "jobs API"},
		{name: "unknown stack", mutate: func(o *options) { o.stack = "tape" }, wantErr: `unknown stack "tape"`},
		{name: "bad server count", mutate: func(o *options) { o.stack = "hddx0" }, wantErr: "server count"},
		{name: "zero window", mutate: func(o *options) { o.window = 0 }, wantErr: "-window"},
		{name: "negative sample", mutate: func(o *options) { o.sample = -1 }, wantErr: "-sample"},
		{name: "zero burst-k", mutate: func(o *options) { o.burstK = 0 }, wantErr: "-burst-k"},
		{name: "fault rate over 1", mutate: func(o *options) { o.faultRate = 1.5 }, wantErr: "-fault-rate"},
		{name: "zero procs", mutate: func(o *options) { o.procs = 0 }, wantErr: "-procs"},
		{name: "zero mb", mutate: func(o *options) { o.mb = 0 }, wantErr: "-mb"},
		{name: "sub-block record", mutate: func(o *options) { o.record = 100 }, wantErr: "-record"},
		{name: "zero max-jobs", mutate: func(o *options) { o.maxJobs = 0 }, wantErr: "-max-jobs"},
		{name: "negative batch-wait", mutate: func(o *options) { o.batchWait = -time.Second }, wantErr: "-batch-wait"},
		{name: "zero grace", mutate: func(o *options) { o.grace = 0 }, wantErr: "-grace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := valid
			tc.mutate(&opts)
			set := make(map[string]bool)
			for _, f := range tc.set {
				set[f] = true
			}
			err := validate(opts, tc.logs, set)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// testManager builds a jobManager on a tiny two-server stack with its
// API mounted on an httptest server. The scheduler is NOT started;
// tests that need it call mgr.start().
func testManager(t *testing.T, maxJobs int, batchWait time.Duration) (*jobManager, *httptest.Server) {
	t.Helper()
	opts := options{
		seed: 1, procs: 2, mb: 2, record: 1 << 20,
		maxJobs: maxJobs, batchWait: batchWait, grace: 30 * time.Second,
	}
	storage := bps.Storage{Media: bps.HDD, Servers: 2, SharedFile: true}
	pub := serve.NewPublisher("test", forecast.Config{})
	mgr := newJobManager(opts, storage, func() *bps.ObserveOptions { return nil }, io.Discard)
	mux := http.NewServeMux()
	mgr.mount(mux, pub)
	mux.Handle("/", pub.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return mgr, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, job) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j job
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &j); err != nil {
			t.Fatalf("decoding job: %v (%s)", err, raw)
		}
	}
	return resp, j
}

func getJob(t *testing.T, ts *httptest.Server, id int) job {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%d: %s", id, resp.Status)
	}
	var j job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func waitState(t *testing.T, ts *httptest.Server, id int, state string) job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j := getJob(t, ts, id)
		if j.State == state {
			return j
		}
		if j.State == stateFailed {
			t.Fatalf("job %d failed: %s", id, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %q waiting for %q", id, j.State, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobsSaturation checks the bounded queue: past -max-jobs,
// submissions get 429 with a Retry-After header, and nothing deadlocks
// (the earlier submissions are still there and well-formed).
func TestJobsSaturation(t *testing.T) {
	_, ts := testManager(t, 2, 50*time.Millisecond) // scheduler never started: queue can only fill
	r1, j1 := postJob(t, ts, `{"tenant":"a"}`)
	r2, _ := postJob(t, ts, `{"tenant":"b"}`)
	if r1.StatusCode != http.StatusAccepted || r2.StatusCode != http.StatusAccepted {
		t.Fatalf("first two submissions: %s, %s", r1.Status, r2.Status)
	}
	r3, _ := postJob(t, ts, `{"tenant":"c"}`)
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submission: %s, want 429", r3.Status)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if j := getJob(t, ts, j1.ID); j.State != stateQueued {
		t.Fatalf("job 1 state %q, want queued", j.State)
	}
}

// TestJobsValidation checks submissions are rejected with 400 before
// they reach the queue.
func TestJobsValidation(t *testing.T) {
	_, ts := testManager(t, 8, 0)
	for _, body := range []string{
		`not json`,
		`{}`,                                // missing tenant
		`{"tenant":"has space"}`,            // bad name
		`{"tenant":"a","procs":-1}`,         // bad procs
		`{"tenant":"a","mb":-5}`,            // bad volume
		`{"tenant":"a","record_bytes":100}`, // sub-block record
		`{"tenant":"a","bps_floor":-1}`,     // negative floor
	} {
		resp, _ := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: %s, want 400", body, resp.Status)
		}
	}
}

// TestJobsDeleteQueued checks DELETE cancels a queued job and refuses
// anything else.
func TestJobsDeleteQueued(t *testing.T) {
	_, ts := testManager(t, 8, time.Hour) // batch window never closes in test time
	_, j := postJob(t, ts, `{"tenant":"a"}`)

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", ts.URL, j.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE queued job: %s, want 204", resp.Status)
	}
	if got := getJob(t, ts, j.ID); got.State != stateCancelled {
		t.Fatalf("state %q after delete, want cancelled", got.State)
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE cancelled job: %s, want 409", resp2.Status)
	}
	if resp3, _ := http.Get(ts.URL + "/jobs/999"); resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing job: %s, want 404", resp3.Status)
	}
}

// TestJobsTwoTenantThrottle is the tentpole end to end over HTTP: two
// tenants submitted into one batch window, tenant A protected by an
// unmeetable floor, so the controller must activate and throttle B.
func TestJobsTwoTenantThrottle(t *testing.T) {
	mgr, ts := testManager(t, 8, 200*time.Millisecond)
	_, ja := postJob(t, ts, `{"tenant":"alpha","priority":1,"bps_floor":1e8,"procs":2,"mb":4,"record_bytes":1048576}`)
	_, jb := postJob(t, ts, `{"tenant":"beta","procs":2,"mb":1,"record_bytes":4096}`)
	mgr.start()

	a := waitState(t, ts, ja.ID, stateDone)
	b := waitState(t, ts, jb.ID, stateDone)
	if a.Batch != b.Batch {
		t.Fatalf("tenants split across batches %d and %d; they must contend in one run", a.Batch, b.Batch)
	}
	if a.Result == nil || a.Result.BPS <= 0 || a.Result.Blocks == 0 {
		t.Fatalf("tenant A result: %+v", a.Result)
	}
	if b.Result.QoSDelayed+b.Result.QoSShed == 0 {
		t.Fatalf("tenant B was neither delayed nor shed under A's unmeetable floor: %+v", b.Result)
	}

	resp, err := http.Get(ts.URL + "/qos")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep bps.QoSReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Enabled || rep.Activations == 0 {
		t.Fatalf("controller report shows no activations: %+v", rep)
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("report has %d tenants, want 2", len(rep.Tenants))
	}

	// healthz reflects the finished work.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h daemonHealth
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Jobs.Done != 2 || h.Jobs.Queued != 0 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestJobsDrain checks graceful shutdown: accepted jobs finish within
// the grace period, new submissions are refused with 503, and the
// scheduler exits.
func TestJobsDrain(t *testing.T) {
	mgr, ts := testManager(t, 8, 50*time.Millisecond)
	_, j := postJob(t, ts, `{"tenant":"a","procs":1,"mb":1}`)
	mgr.start()

	if err := mgr.drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := getJob(t, ts, j.ID); got.State != stateDone {
		t.Fatalf("job state %q after drain, want done", got.State)
	}
	resp, _ := postJob(t, ts, `{"tenant":"late"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: %s, want 503", resp.Status)
	}
	var h daemonHealth
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || !h.Jobs.Draining {
		t.Fatalf("healthz after drain = %+v, want draining status", h)
	}
}

// TestJobsBatchDeterminism reruns an identical submission sequence on a
// fresh manager and requires identical measured results — the daemon's
// restart-reproducibility contract (seed × batch index → engine seed).
func TestJobsBatchDeterminism(t *testing.T) {
	run := func() (job, job) {
		mgr, ts := testManager(t, 8, 200*time.Millisecond)
		_, ja := postJob(t, ts, `{"tenant":"alpha","priority":1,"bps_floor":1e8,"procs":2,"mb":4}`)
		_, jb := postJob(t, ts, `{"tenant":"beta","procs":2,"mb":1,"record_bytes":4096}`)
		mgr.start()
		a := waitState(t, ts, ja.ID, stateDone)
		b := waitState(t, ts, jb.ID, stateDone)
		return a, b
	}
	a1, b1 := run()
	a2, b2 := run()
	if *a1.Result != *a2.Result {
		t.Errorf("tenant A results diverged across identical daemons:\n%+v\n%+v", a1.Result, a2.Result)
	}
	if *b1.Result != *b2.Result {
		t.Errorf("tenant B results diverged across identical daemons:\n%+v\n%+v", b1.Result, b2.Result)
	}
}
