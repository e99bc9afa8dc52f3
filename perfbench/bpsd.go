package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The bpsd workload: bpsdClients closed-loop clients, each its own
// tenant, submit a job, poll it to a final state and submit the next.
// Each job is jobProcs × jobMB MiB in jobRecord records; a client's jobs
// alternate between reads and writes. A pass is jobsPerPass jobs split
// evenly across the clients.
const (
	bpsdClients = 2
	jobsPerPass = 20
	jobProcs    = 2
	jobMB       = 16
	jobRecord   = 64 << 10
	jobOps      = jobProcs * (jobMB << 20) / jobRecord
	jobBlocks   = jobProcs * (jobMB << 20) / 512
	pollEvery   = 2 * time.Millisecond

	// daemonReady bounds the wait for the daemon's jobs API (it runs a
	// small base workload first); daemonExit bounds the SIGTERM drain.
	daemonReady = 60 * time.Second
	daemonExit  = 30 * time.Second
)

// daemonArgs are the daemon's flags; -seed is appended per run.
var daemonArgs = []string{"-addr", "127.0.0.1:0", "-stack", "hddx4", "-procs", "1", "-mb", "1", "-batch-wait", "0"}

var bannerAddr = regexp.MustCompile(`on http://(\S+) \(`)

// daemon is one running bpsd child.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed when both output readers have finished

	mu      sync.Mutex
	gcPause []float64 // STW pause ms per GC cycle, from GODEBUG=gctrace=1
}

// gcLine matches a gctrace line's wall-clock phases: the first and
// third are stop-the-world.
var gcLine = regexp.MustCompile(`^gc \d+ @\S+ \S+: ([\d.]+)\+[\d.]+\+([\d.]+) ms clock`)

// startDaemon starts bpsd and returns once its jobs API is live.
func startDaemon(path string, seed int64, gctrace bool) (*daemon, error) {
	if path == "" {
		return nil, errors.New("bpsd workload needs --bpsd")
	}
	cmd := exec.Command(path, append(append([]string(nil), daemonArgs...), "-seed", strconv.FormatInt(seed, 10))...)
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	ready := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(stdout)
		var addr string
		for sc.Scan() {
			line := sc.Text()
			if m := bannerAddr.FindStringSubmatch(line); m != nil && addr == "" {
				addr = m[1]
			}
			if strings.Contains(line, "jobs API live") {
				select {
				case ready <- addr:
				default:
				}
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := gcLine.FindStringSubmatch(sc.Text()); m != nil {
				a, _ := strconv.ParseFloat(m[1], 64)
				c, _ := strconv.ParseFloat(m[2], 64)
				d.mu.Lock()
				d.gcPause = append(d.gcPause, a+c)
				d.mu.Unlock()
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	go func() {
		wg.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-ready:
		if d.addr == "" {
			d.stop()
			return nil, errors.New("bpsd printed no listen address")
		}
		return d, nil
	case <-d.done:
		d.cmd.Wait()
		return nil, fmt.Errorf("bpsd exited before its jobs API came up: %v", d.cmd.ProcessState)
	case <-time.After(daemonReady):
		d.stop()
		return nil, fmt.Errorf("bpsd jobs API not live after %v", daemonReady)
	}
}

// gcSnapshot returns the GC cycles and total pause seen so far.
func (d *daemon) gcSnapshot() (int, float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var sum float64
	for _, p := range d.gcPause {
		sum += p
	}
	return len(d.gcPause), sum
}

// stop sends SIGTERM, waits for the drain (killing the daemon if it
// overruns daemonExit) and returns the exit code.
func (d *daemon) stop() int {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(daemonExit):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.cmd.Wait()
	return d.cmd.ProcessState.ExitCode()
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every Linux ABI Go supports).
const clockTicks = 100

// jobView is the part of GET /jobs/{id} the client reads.
type jobView struct {
	ID     int    `json:"id"`
	State  string `json:"state"`
	Batch  int    `json:"batch"`
	Error  string `json:"error"`
	Result *struct {
		Blocks     int64 `json:"blocks"`
		Ops        int64 `json:"ops"`
		Errors     int   `json:"errors"`
		QoSDelayed int64 `json:"qos_delayed"`
	} `json:"result"`
}

// jobTiming is one job's client-side spans, in wall time since the
// run's base: POST sent, POST answered, first poll past queued, final
// state seen.
type jobTiming struct {
	client                     int
	post, accepted, left, done time.Duration
	batch                      int
	delayed                    int64
}

// client is one closed-loop tenant.
type client struct {
	id     int
	tenant string
	http   *http.Client
	base   time.Time
	addr   string
	next   int // job sequence number: even reads, odd writes (offset by seed)
	seed   int64
}

// job submits one job and polls it to a final state. It returns the
// job's timing, and an error describing why the job failed its check.
func (c *client) job() (jobTiming, error) {
	write := (int64(c.next)+c.seed)%2 == 1
	c.next++
	body, _ := json.Marshal(map[string]any{
		"tenant": c.tenant, "procs": jobProcs, "mb": jobMB, "record_bytes": jobRecord, "write": write,
	})
	t := jobTiming{client: c.id, post: time.Since(c.base)}
	resp, err := c.http.Post("http://"+c.addr+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return t, err
	}
	var jv jobView
	err = json.NewDecoder(resp.Body).Decode(&jv)
	resp.Body.Close()
	t.accepted = time.Since(c.base)
	if resp.StatusCode != http.StatusAccepted {
		return t, fmt.Errorf("POST /jobs: %s", resp.Status)
	}
	if err != nil {
		return t, err
	}
	url := fmt.Sprintf("http://%s/jobs/%d", c.addr, jv.ID)
	for {
		resp, err := c.http.Get(url)
		if err != nil {
			return t, err
		}
		jv = jobView{}
		err = json.NewDecoder(resp.Body).Decode(&jv)
		resp.Body.Close()
		if err != nil {
			return t, err
		}
		now := time.Since(c.base)
		if jv.State != "queued" && t.left == 0 {
			t.left = now
		}
		switch jv.State {
		case "done":
			t.done = now
			t.batch = jv.Batch
			if r := jv.Result; r == nil || r.Ops != jobOps || r.Blocks != jobBlocks || r.Errors != 0 {
				return t, fmt.Errorf("job %d result %+v, want ops=%d blocks=%d errors=0", jv.ID, r, jobOps, jobBlocks)
			}
			t.delayed = jv.Result.QoSDelayed
			return t, nil
		case "failed", "cancelled":
			t.done = now
			return t, fmt.Errorf("job %d %s: %s", jv.ID, jv.State, jv.Error)
		}
		time.Sleep(pollEvery)
	}
}

func runBpsd(cfg config) (*outcome, error) {
	o := &outcome{}
	tr := &http.Transport{MaxIdleConnsPerHost: bpsdClients}
	defer tr.CloseIdleConnections()
	httpc := &http.Client{Transport: tr, Timeout: 60 * time.Second}

	// Set-up starts the daemon, waits for its base run and jobs API, and
	// runs one read job through it, so the first measured job finds the
	// server, scheduler and QoS controller warm.
	var d *daemon
	if err := timeSetup(o, func() {
		if d != nil {
			if code := d.stop(); code != 0 {
				o.fail(1, "bpsd exited %d after a set-up SIGTERM", code)
			}
			d = nil
		}
	}, func() error {
		var err error
		if d, err = startDaemon(cfg.bpsd, cfg.seed, cfg.trace); err != nil {
			return err
		}
		warm := &client{tenant: "warmup", http: httpc, base: time.Now(), addr: d.addr}
		o.attempted++
		if _, err := warm.job(); err != nil {
			o.fail(1, "bpsd: warm-up job: %v", err)
		}
		return nil
	}); err != nil {
		if d != nil {
			d.stop()
		}
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	base := time.Now()
	clients := make([]*client, bpsdClients)
	for i := range clients {
		clients[i] = &client{id: i, tenant: fmt.Sprintf("tenant%d", i), http: httpc, base: base, addr: d.addr, seed: cfg.seed}
	}

	var timings []jobTiming
	var mu sync.Mutex
	gc0, pause0 := d.gcSnapshot()
	t0 := time.Now()
	ps, err := measure(cfg.seconds, strconv.Itoa(d.cmd.Process.Pid), func() (pass, error) {
		c0, err := d.cpu()
		if err != nil {
			return pass{}, err
		}
		start := time.Now()
		var lats []float64
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for j := 0; j < jobsPerPass/bpsdClients; j++ {
					t, err := c.job()
					mu.Lock()
					o.attempted++
					if err != nil {
						o.fail(1, "bpsd: %v", err)
					} else {
						lats = append(lats, float64((t.done-t.post).Nanoseconds())/1e3)
						timings = append(timings, t)
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(start)
		c1, err := d.cpu()
		if err != nil {
			return pass{}, err
		}
		return pass{wall: wall, cpu: c1 - c0, ops: int64(len(lats)) * jobOps}.withLatencies(lats), nil
	})
	if err != nil {
		return nil, err
	}
	loopWall := time.Since(t0)
	gc1, pause1 := d.gcSnapshot()
	code := d.stop()
	stopped = true
	if code != 0 {
		o.fail(1, "bpsd exited %d after the SIGTERM drain", code)
	}
	if cfg.trace {
		return o, tracedBpsd(cfg, o, timings, loopWall, gc1-gc0, pause1-pause0)
	}
	ps.record(o)
	return o, nil
}

// tracedBpsd derives the per-layer metrics from the client-side spans
// and the daemon's gctrace, and dumps the spans.
func tracedBpsd(cfg config, o *outcome, ts []jobTiming, wall time.Duration, gcs int, pause float64) error {
	var post, queue, run []float64
	batches := make(map[int]bool)
	var delayed int64
	for _, t := range ts {
		post = append(post, (t.accepted-t.post).Seconds()*1e3)
		queue = append(queue, (t.left-t.accepted).Seconds()*1e3)
		run = append(run, (t.done-t.left).Seconds()*1e3)
		batches[t.batch] = true
		delayed += t.delayed
	}
	n := int64(len(ts))
	o.set("trace.ops", float64(n*jobOps))
	o.set("bpsd.post_ms", median(post))
	o.set("bpsd.queue_ms", median(queue))
	o.set("bpsd.run_ms", median(run))
	o.set("bpsd.jobs_per_s", float64(n)/wall.Seconds())
	o.set("bpsd.jobs_per_batch", float64(n)/float64(max(len(batches), 1)))
	o.set("qos.delayed_per_job", float64(delayed)/float64(max(n, 1)))
	o.set("gc.cycles_per_s", float64(gcs)/wall.Seconds())
	o.set("gc.pause_ms_total", pause)

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.out, "spans-bpsd.csv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "point,span,proc,layer,start_ns,end_ns,parent,req")
	for i, t := range ts {
		job := 3 * i
		fmt.Fprintf(w, "bpsd,%d,%d,job,%d,%d,-1,%d\n", job, t.client, t.post, t.done, i)
		fmt.Fprintf(w, "bpsd,%d,%d,http.post,%d,%d,%d,%d\n", job+1, t.client, t.post, t.accepted, job, i)
		fmt.Fprintf(w, "bpsd,%d,%d,http.poll,%d,%d,%d,%d\n", job+2, t.client, t.accepted, t.done, job, i)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	o.table = append(o.table,
		fmt.Sprintf("bpsd: %d jobs (%d accesses each) by %d closed-loop clients in %.3f s, %d batches, %d GC cycles",
			n, jobOps, bpsdClients, wall.Seconds(), len(batches), gcs),
		fmt.Sprintf("  %-12s %10s %10s %10s", "span", "median ms", "p95 ms", "samples"))
	row := func(name string, xs []float64) string {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return fmt.Sprintf("  %-12s %10.3f %10.3f %10d", name, median(s), nearestRank(s, 0.95), len(s))
	}
	o.table = append(o.table, row("post", post), row("queue", queue), row("run", run))
	o.table = append(o.table, metricRows(o)...)
	return nil
}
