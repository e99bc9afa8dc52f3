package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bps"
	"bps/internal/backend"
	"bps/internal/core"
	"bps/internal/live"
	"bps/internal/obs"
	"bps/internal/obs/forecast"
	"bps/internal/sim"
	"bps/internal/workload"
)

// runCfg is a small cluster run with windows and sampling on.
func runCfg(tick func(sim.Time, *bps.Observer)) bps.RunConfig {
	return bps.RunConfig{
		Storage: bps.Storage{Media: bps.HDD, Servers: 2, SharedFile: true},
		Seed:    7,
		Observe: &bps.ObserveOptions{
			SampleEvery: sim.Millisecond,
			WindowEvery: 10 * sim.Millisecond,
			Tick:        tick,
		},
	}
}

func mustRun(t *testing.T, tick func(sim.Time, *bps.Observer)) bps.RunReport {
	t.Helper()
	rep, err := bps.SimulateSequentialRead(runCfg(tick), 2, 4<<20, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestTimingNeutrality is the serving contract: a run with the live
// publisher hooked in produces bit-identical records, metrics, and
// window series to the same run without it.
func TestTimingNeutrality(t *testing.T) {
	plain := mustRun(t, nil)

	pub := NewPublisher("test", forecast.Config{})
	hooked := mustRun(t, pub.Hook())

	if plain.Metrics != hooked.Metrics {
		t.Errorf("metrics diverged:\nplain:  %+v\nhooked: %+v", plain.Metrics, hooked.Metrics)
	}
	if !reflect.DeepEqual(plain.Records, hooked.Records) {
		t.Error("records diverged under serving")
	}
	if !reflect.DeepEqual(plain.Attribution.Windows, hooked.Attribution.Windows) {
		t.Error("window series diverged under serving")
	}
}

// TestPublisherDeterminism runs the same simulation twice against two
// publishers and requires identical snapshots and forecasts — the
// replay-twice acceptance criterion at the publisher level.
func TestPublisherDeterminism(t *testing.T) {
	run := func() *Snapshot {
		pub := NewPublisher("det", forecast.Config{})
		mustRun(t, pub.Hook())
		return pub.Snapshot()
	}
	s1, s2 := run(), run()
	if s1 == nil || s2 == nil {
		t.Fatal("no snapshot published")
	}
	b1, _ := json.Marshal(s1)
	b2, _ := json.Marshal(s2)
	if string(b1) != string(b2) {
		t.Fatalf("snapshots diverged across identical runs:\n%s\n%s", b1, b2)
	}
}

// TestSnapshotContents sanity-checks what one run publishes: closed
// windows fed in order, three forecast series, registry metrics.
func TestSnapshotContents(t *testing.T) {
	pub := NewPublisher("contents", forecast.Config{})
	mustRun(t, pub.Hook())
	s := pub.Snapshot()
	if s == nil {
		t.Fatal("no snapshot published")
	}
	if s.Closed == 0 || len(s.Windows) < s.Closed {
		t.Fatalf("closed=%d windows=%d: want some closed windows", s.Closed, len(s.Windows))
	}
	if len(s.Series) != len(forecast.TrackedSeries) {
		t.Fatalf("got %d forecast series, want %d", len(s.Series), len(forecast.TrackedSeries))
	}
	for _, fs := range s.Series {
		if len(fs.Points) != s.Closed {
			t.Errorf("series %q has %d points, want %d (one per closed window)", fs.Name, len(fs.Points), s.Closed)
		}
	}
	if len(s.Metrics) == 0 || len(s.Hists) == 0 {
		t.Fatal("snapshot missing registry metrics")
	}
	if s.NowS <= 0 || s.WindowS != 0.01 {
		t.Fatalf("now=%v window=%v: bad snapshot header", s.NowS, s.WindowS)
	}
}

// TestPublisherMultiRunReset checks one publisher serving consecutive
// runs restarts its window feed per run instead of accumulating.
func TestPublisherMultiRunReset(t *testing.T) {
	pub := NewPublisher("multi", forecast.Config{})
	mustRun(t, pub.Hook())
	first := pub.Snapshot()
	mustRun(t, pub.Hook())
	second := pub.Snapshot()
	if second.Closed != first.Closed {
		t.Fatalf("second run closed %d windows, want %d (feed must restart per run)", second.Closed, first.Closed)
	}
}

// TestEndpoints exercises the HTTP surface over a finished run.
func TestEndpoints(t *testing.T) {
	pub := NewPublisher("http", forecast.Config{})
	mustRun(t, pub.Hook())
	ts := httptest.NewServer(pub.Handler())
	defer ts.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{"bps_sim_now_seconds", "bps_window_bps", "bps_forecast_next", "bps_alerts_total"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s:\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, "NaN") || strings.Contains(metrics, "Inf") {
		t.Error("/metrics contains NaN/Inf")
	}

	var wins struct {
		Windows []WindowJSON `json:"windows"`
		Closed  int          `json:"closed"`
	}
	if err := json.Unmarshal([]byte(get("/windows")), &wins); err != nil {
		t.Fatalf("/windows: %v", err)
	}
	if len(wins.Windows) == 0 || wins.Closed == 0 {
		t.Fatal("/windows served no windows")
	}

	var fc struct {
		Series []SeriesJSON `json:"series"`
	}
	if err := json.Unmarshal([]byte(get("/forecast")), &fc); err != nil {
		t.Fatalf("/forecast: %v", err)
	}
	if len(fc.Series) != 3 {
		t.Fatalf("/forecast served %d series, want 3", len(fc.Series))
	}

	if idx := get("/"); !strings.Contains(idx, "/stream") {
		t.Errorf("index page missing endpoint list: %q", idx)
	}
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope: %s, want 404", resp.Status)
	}
}

// TestStreamSSE checks /stream: an immediate snapshot event, then live
// window events broadcast by a later run.
func TestStreamSSE(t *testing.T) {
	pub := NewPublisher("sse", forecast.Config{})
	mustRun(t, pub.Hook())
	ts := httptest.NewServer(pub.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(line) != "event: snapshot" {
		t.Fatalf("first SSE line %q, want snapshot event", line)
	}

	// A second run broadcasts its windows to the open subscriber.
	done := make(chan struct{})
	go func() {
		defer close(done)
		mustRun(t, pub.Hook())
	}()
	<-done
	sawWindow := false
	for i := 0; i < 200 && !sawWindow; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading stream: %v", err)
		}
		if strings.TrimSpace(line) == "event: window" {
			sawWindow = true
		}
	}
	if !sawWindow {
		t.Fatal("no window event streamed during the second run")
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"sim/engine/events":  "bps_sim_engine_events",
		"device/hdd.bytes":   "bps_device_hdd_bytes",
		"already_legal_123":  "bps_already_legal_123",
		"weird metric (x%y)": "bps_weird_metric__x_y_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestServerStartClose checks the real listener path used by the cmds.
func TestServerStartClose(t *testing.T) {
	pub := NewPublisher("srv", forecast.Config{})
	mustRun(t, pub.Hook())
	srv, err := Start("127.0.0.1:0", pub)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/windows")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /windows: %s", resp.Status)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSlowLorisHeaderTimeout is the hardening regression: a client that
// sends half a request and then goes silent must be disconnected by the
// ReadHeader timeout, not allowed to pin a connection goroutine forever.
func TestSlowLorisHeaderTimeout(t *testing.T) {
	pub := NewPublisher("loris", forecast.Config{})
	srv, err := StartWith("127.0.0.1:0", pub.Handler(), Timeouts{ReadHeader: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request: headers never finish (no terminating blank line).
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: bps\r\nX-Trickle: sl"); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The server must close the connection (plain close or a 408 first);
	// our read deadline firing instead means it never did.
	buf := make([]byte, 512)
	for {
		_, err := conn.Read(buf)
		if err == nil {
			continue // a 408 response body; keep reading until close
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("server left the slow-loris connection open past the header timeout")
		}
		return // EOF or reset: the server hung up, as required
	}
}

// TestStreamBackpressure runs a fast and a slow SSE consumer against
// one broadcaster concurrently: the fast consumer sees every event in
// order, the slow one (which never reads) is evicted after DropLimit
// misses, and the drops are counted for /metrics and /healthz.
func TestStreamBackpressure(t *testing.T) {
	p := NewPublisher("bp", forecast.Config{})
	fast := p.subscribe()
	slow := p.subscribe()
	defer p.unsubscribe(fast)

	const total = 2*DropLimit + 512 // enough to evict slow mid-run
	var consumed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			ev, ok := <-fast.ch
			if !ok {
				t.Errorf("fast consumer evicted after %d events", i)
				return
			}
			if want := fmt.Sprintf("%d", i); string(ev.data) != want {
				t.Errorf("fast consumer saw %q at position %d, want %q", ev.data, i, want)
				return
			}
			consumed.Add(1)
		}
	}()

	// Broadcast in sub-buffer batches, letting the fast consumer drain
	// between batches so only the slow consumer can ever miss.
	const batch = 128
	for n := 0; n < total; n += batch {
		for i := n; i < n+batch && i < total; i++ {
			p.broadcast([]event{{kind: "window", data: []byte(fmt.Sprintf("%d", i))}})
		}
		deadline := time.Now().Add(10 * time.Second)
		for int(consumed.Load()) < min(n+batch, total) {
			if time.Now().After(deadline) {
				t.Fatalf("fast consumer stalled at %d/%d", consumed.Load(), total)
			}
			time.Sleep(time.Millisecond)
		}
	}
	<-done

	if got := p.Dropped(); got != DropLimit {
		t.Errorf("dropped = %d, want exactly DropLimit=%d (eviction stops the bleeding)", got, DropLimit)
	}
	if got := p.Subscribers(); got != 1 {
		t.Errorf("subscribers = %d after eviction, want 1 (fast only)", got)
	}
	// The slow consumer's channel holds its buffered prefix, then closes.
	buffered := 0
	for range slow.ch {
		buffered++
	}
	if buffered != cap(slow.ch) {
		t.Errorf("slow consumer drained %d buffered events, want %d", buffered, cap(slow.ch))
	}
}

// TestStreamEviction drives the HTTP /stream handler end to end: a
// consumer that stops reading is evicted and its response ends, while
// the publisher keeps serving everyone else.
func TestStreamEviction(t *testing.T) {
	pub := NewPublisher("evict", forecast.Config{})
	mustRun(t, pub.Hook())
	ts := httptest.NewServer(pub.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || strings.TrimSpace(line) != "event: snapshot" {
		t.Fatalf("first SSE line %q (err %v), want snapshot event", line, err)
	}

	// Stop reading and flood until DropLimit consecutive misses evict
	// us. The handler keeps writing into the socket buffers while they
	// have room, so a fixed-size flood can be absorbed without a single
	// miss; flood until the subscriber is gone instead.
	for evicted := false; !evicted; {
		pub.broadcast([]event{{kind: "window", data: []byte("{}")}})
		pub.smu.Lock()
		evicted = len(pub.subs) == 0
		pub.smu.Unlock()
	}
	// The handler drains the buffered prefix into the response, appends
	// the eviction notice, and returns; the body must therefore end.
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<28))
	if err != nil {
		t.Fatalf("reading post-eviction body: %v", err)
	}
	if !strings.Contains(string(body), "event: evicted") {
		t.Error("evicted stream did not receive the eviction notice")
	}
	if pub.Dropped() < DropLimit {
		t.Errorf("dropped = %d, want >= %d", pub.Dropped(), DropLimit)
	}
}

// TestHealthzAndStreamMetrics checks the /healthz payload and the
// backpressure counters on /metrics.
func TestHealthzAndStreamMetrics(t *testing.T) {
	pub := NewPublisher("health", forecast.Config{})
	mustRun(t, pub.Hook())
	ts := httptest.NewServer(pub.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Label != "health" {
		t.Fatalf("healthz = %+v", h)
	}
	if h.NowS <= 0 || h.Closed == 0 {
		t.Fatalf("healthz shows no progress: %+v", h)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"bps_stream_dropped_total", "bps_stream_subscribers"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestServerShutdownDrains checks graceful drain: in-flight requests
// finish, new connections are refused, Shutdown returns.
func TestServerShutdownDrains(t *testing.T) {
	pub := NewPublisher("drain", forecast.Config{})
	mustRun(t, pub.Hook())
	srv, err := StartHandler("127.0.0.1:0", pub.Handler())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestRooflineEndpoint pins the live/post-hoc agreement contract: with
// a ceiling installed, /roofline serves exactly the measured BPS the
// post-hoc metrics compute from the finished run — the window series'
// block and busy sums are exact, so the two can never disagree — and
// /metrics exports the roofline gauges.
func TestRooflineEndpoint(t *testing.T) {
	const ceiling = 250000.0
	pub := NewPublisher("roof", forecast.Config{})
	pub.SetRoofline(ceiling)
	rep := mustRun(t, pub.Hook())
	ts := httptest.NewServer(pub.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/roofline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got RooflineJSON
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("/roofline: %v", err)
	}
	if got.CeilingBPS != ceiling {
		t.Errorf("ceiling %v, want %v", got.CeilingBPS, ceiling)
	}
	wantBPS := rep.Metrics.BPS()
	if wantBPS <= 0 {
		t.Fatalf("run measured no BPS: %v", wantBPS)
	}
	if got.MeasuredBPS != wantBPS {
		t.Errorf("live measured BPS %v != post-hoc BPS %v (must be exact)", got.MeasuredBPS, wantBPS)
	}
	if want := wantBPS / ceiling; got.Headroom != want {
		t.Errorf("headroom %v, want %v", got.Headroom, want)
	}
	if got.Blocks <= 0 || got.BusyS <= 0 {
		t.Errorf("blocks=%d busy=%v: want positive sums", got.Blocks, got.BusyS)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"bps_roofline_ceiling_bps 250000", "bps_roofline_headroom ", "bps_roofline_measured_bps "} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s:\n%s", want, body)
		}
	}
}

// TestRooflineAbsentByDefault checks a publisher without a ceiling
// publishes the historical snapshot shape: no Roofline view, an empty
// /roofline object, and no bps_roofline_* gauges.
func TestRooflineAbsentByDefault(t *testing.T) {
	pub := NewPublisher("noroof", forecast.Config{})
	mustRun(t, pub.Hook())
	if s := pub.Snapshot(); s == nil || s.Roofline != nil {
		t.Fatalf("snapshot roofline = %+v, want absent", s.Roofline)
	}
	ts := httptest.NewServer(pub.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/roofline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if strings.TrimSpace(string(body)) != "{}" {
		t.Errorf("/roofline = %q, want {}", body)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, _ := io.ReadAll(mresp.Body)
	if strings.Contains(string(mbody), "bps_roofline") {
		t.Error("/metrics exports roofline gauges without a ceiling")
	}
}

// referenceSnapshot is the publisher's snapshot built from scratch, the
// way every tick built it before snapshots were updated in place. The
// oracle tests require the in-place buffer to marshal to exactly these
// bytes at every tick.
func referenceSnapshot(p *Publisher, now sim.Time, src Source) *Snapshot {
	s := &Snapshot{
		Label:   p.label,
		NowS:    now.Seconds(),
		WindowS: src.WindowEvery().Seconds(),
		Closed:  p.fed,
	}
	var blocks int64
	var busy sim.Time
	for i, w := range src.AppendLiveWindows(nil) {
		s.Windows = append(s.Windows, windowJSON(i, w))
		blocks += w.Blocks
		busy += w.Busy
	}
	if p.ceilingBPS > 0 {
		r := &RooflineJSON{CeilingBPS: p.ceilingBPS, Blocks: blocks, BusyS: busy.Seconds()}
		if busy > 0 {
			r.MeasuredBPS = float64(blocks) / busy.Seconds()
			r.Headroom = r.MeasuredBPS / r.CeilingBPS
		}
		s.Roofline = r
	}
	for _, fs := range p.tracker.Series() {
		sj := SeriesJSON{Name: fs.Name(), Model: fs.Last().Model.String(), MAE: fs.MAE()}
		for _, pt := range fs.Points() {
			sj.Points = append(sj.Points, PointJSON{
				Index: pt.Index, Observed: pt.Observed, Forecast: pt.Forecast,
				Model: pt.Model.String(), Baseline: pt.Baseline,
			})
		}
		s.Series = append(s.Series, sj)
	}
	for _, a := range p.tracker.Alerts() {
		s.Alerts = append(s.Alerts, alertJSON(a))
	}
	reg := src.Registry()
	for _, c := range reg.Counters() {
		s.Metrics = append(s.Metrics, MetricJSON{Name: c.Name(), Kind: "counter", Value: float64(c.Value())})
	}
	for _, g := range reg.Gauges() {
		s.Metrics = append(s.Metrics, MetricJSON{Name: g.Name(), Kind: "gauge", Value: g.Value()})
	}
	for _, h := range reg.Histograms() {
		s.Hists = append(s.Hists, HistJSON{
			Name: h.Name(), Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99), Max: h.Max(),
		})
	}
	return s
}

// oracle publishes one tick and compares the snapshot's JSON with the
// reference built from the same source.
type oracle struct {
	t     *testing.T
	pub   *Publisher
	ticks int
}

func (o *oracle) publish(now sim.Time, src Source) {
	o.t.Helper()
	o.pub.Publish(now, src)
	o.ticks++
	got, err := json.Marshal(o.pub.Snapshot())
	if err != nil {
		o.t.Fatal(err)
	}
	want, err := json.Marshal(referenceSnapshot(o.pub, now, src))
	if err != nil {
		o.t.Fatal(err)
	}
	if string(got) != string(want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-80)
		o.t.Fatalf("tick %d at %v: snapshot differs from the reference at byte %d:\ngot  …%s\nwant …%s",
			o.ticks, now, i, got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
	}
}

// hook is the oracle's sampler hook.
func (o *oracle) hook() func(sim.Time, *bps.Observer) {
	return func(now sim.Time, ob *bps.Observer) { o.publish(now, ob) }
}

// TestSnapshotOracleTwoRuns checks every tick of two consecutive runs
// on one publisher, so the run-boundary reset is covered. A low burst
// threshold makes the runs raise alerts.
func TestSnapshotOracleTwoRuns(t *testing.T) {
	o := &oracle{t: t, pub: NewPublisher("oracle", forecast.Config{BurstK: 1.05, Warmup: 1})}
	mustRun(t, o.hook())
	first := o.ticks
	mustRun(t, o.hook())
	if first == 0 || o.ticks != 2*first {
		t.Fatalf("ticks: first run %d, both runs %d", first, o.ticks)
	}
	if len(o.pub.Snapshot().Alerts) == 0 {
		t.Error("no alert published: the oracle never compared the alert list")
	}
}

// TestSnapshotOracleRoofline checks every tick of a run with a ceiling.
func TestSnapshotOracleRoofline(t *testing.T) {
	o := &oracle{t: t, pub: NewPublisher("oracle-roof", forecast.Config{})}
	o.pub.SetRoofline(250000)
	mustRun(t, o.hook())
	if o.ticks == 0 || o.pub.Snapshot().Roofline == nil {
		t.Fatalf("ticks %d, roofline %+v", o.ticks, o.pub.Snapshot().Roofline)
	}
}

// liveAccesses is a paced two-worker stream lasting about 20 ms of wall
// time, long enough for a 1 ms publish ticker to fire repeatedly.
func liveAccesses() []workload.Access {
	var accs []workload.Access
	for pid := int64(0); pid < 2; pid++ {
		for i := int64(0); i < 100; i++ {
			accs = append(accs, workload.Access{
				PID: pid, Slot: int(pid), Off: i * 4096, Size: 4096,
				Start: sim.Time(i) * 200 * sim.Microsecond, Write: i%4 == 0,
			})
		}
	}
	return accs
}

func liveConfig(publish func(sim.Time, live.Source)) live.Config {
	return live.Config{
		FS:           backend.NewMemFS(),
		Mode:         live.Wall,
		WindowEvery:  sim.Millisecond,
		Seed:         5,
		Label:        "live",
		Publish:      publish,
		PublishEvery: time.Millisecond,
	}
}

// frozenSource holds one moment of a live source: its windows and
// registry values as they stood when the publish callback ran. Workers
// keep running during a live tick, so the publisher and the reference
// must both read this copy to see the same state. One frozenSource
// serves the whole run, so the publisher sees one source identity.
type frozenSource struct {
	wins  []core.Window
	every sim.Time
	reg   *obs.Registry
}

func (f *frozenSource) AppendLiveWindows(dst []core.Window) []core.Window {
	return append(dst, f.wins...)
}
func (f *frozenSource) WindowEvery() sim.Time   { return f.every }
func (f *frozenSource) Registry() *obs.Registry { return f.reg }

func (f *frozenSource) freeze(src live.Source) {
	f.wins = src.AppendLiveWindows(f.wins[:0])
	f.every = src.WindowEvery()
	for _, c := range src.Registry().Counters() {
		m := f.reg.Counter(c.Name())
		m.Add(c.Value() - m.Value())
	}
	for _, g := range src.Registry().Gauges() {
		f.reg.Gauge(g.Name()).Set(g.Value())
	}
}

// TestSnapshotOracleLive checks every tick of a wall-clock memfs run
// published through Publish.
func TestSnapshotOracleLive(t *testing.T) {
	o := &oracle{t: t, pub: NewPublisher("oracle-live", forecast.Config{})}
	frozen := &frozenSource{reg: obs.NewRegistry()}
	rep, err := live.Run(liveConfig(func(now sim.Time, src live.Source) {
		frozen.freeze(src)
		o.publish(now, frozen)
	}), liveAccesses())
	if err != nil {
		t.Fatal(err)
	}
	if o.ticks < 2 {
		t.Fatalf("live run published %d ticks, want several", o.ticks)
	}
	if got := len(o.pub.Snapshot().Windows); got != len(rep.Attribution.Windows) {
		t.Fatalf("final snapshot has %d windows, run reported %d", got, len(rep.Attribution.Windows))
	}
}

// TestPublisherResetBetweenRuns checks an explicit Reset: the last
// published snapshot keeps serving until the next tick, which rebuilds
// the forecast points and alerts from the new forecaster. The second
// pass feeds the same source identity fewer windows, so points left
// over from the first pass would show.
func TestPublisherResetBetweenRuns(t *testing.T) {
	var rec frozenSource
	var obsv *bps.Observer
	mustRun(t, func(now sim.Time, ob *bps.Observer) { obsv = ob })
	rec.wins, rec.every, rec.reg = obsv.AppendLiveWindows(nil), obsv.WindowEvery(), obsv.Registry()
	end := sim.Time(0)
	if n := len(rec.wins); n > 0 {
		end = rec.wins[n-1].End
	}

	o := &oracle{t: t, pub: NewPublisher("reset", forecast.Config{})}
	o.publish(end, &rec)
	before, _ := json.Marshal(o.pub.Snapshot())
	o.pub.Reset()
	after, _ := json.Marshal(o.pub.Snapshot())
	if string(before) != string(after) {
		t.Fatal("Reset changed the published snapshot before the next tick")
	}
	half := len(rec.wins) / 2
	if half < 2 {
		t.Fatalf("run has %d windows, want at least 4", len(rec.wins))
	}
	rec.wins = rec.wins[:half]
	o.publish(rec.wins[half-1].End, &rec)
	if got := len(o.pub.Snapshot().Series[0].Points); got != half {
		t.Fatalf("after Reset the snapshot has %d points, want %d", got, half)
	}
}

// TestConcurrentReaders polls every endpoint from HTTP clients while a
// live run publishes; run it under -race.
func TestConcurrentReaders(t *testing.T) {
	pub := NewPublisher("readers", forecast.Config{})
	ts := httptest.NewServer(pub.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var reads atomic.Int64
	for _, path := range []string{"/metrics", "/windows", "/forecast", "/healthz"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %s, err %v", path, resp.Status, err)
					return
				}
				reads.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/stream", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return // cancelled
			}
			br := bufio.NewReader(resp.Body)
			for i := 0; i < 16; i++ {
				if _, err := br.ReadString('\n'); err != nil {
					break
				}
			}
			resp.Body.Close()
			reads.Add(1)
		}
	}()

	_, err := live.Run(liveConfig(func(now sim.Time, src live.Source) { pub.Publish(now, src) }), liveAccesses())
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if reads.Load() == 0 {
		t.Fatal("no reader completed a request")
	}
	if s := pub.Snapshot(); s == nil || len(s.Windows) == 0 {
		t.Fatal("live run published no windows")
	}
}
