package pfs

import (
	"errors"
	"strings"
	"testing"

	"bps/internal/device"
	"bps/internal/ioreq"
	"bps/internal/netsim"
	"bps/internal/sim"
)

// fakeFaults is a deterministic ServerFaults: down before until, slowed
// by delay inside [slowFrom, slowTo).
type fakeFaults struct {
	until    sim.Time
	delay    sim.Time
	slowFrom sim.Time
	slowTo   sim.Time
}

func (f fakeFaults) Down(now sim.Time) bool { return now < f.until }

func (f fakeFaults) SlowDelay(now sim.Time) sim.Time {
	if f.delay > 0 && now >= f.slowFrom && now < f.slowTo {
		return f.delay
	}
	return 0
}

// newRecoveryCluster builds n RAM-disk servers with the given recovery
// policy and per-server fault models.
func newRecoveryCluster(e *sim.Engine, n int, rc RecoveryConfig, faults func(id int) ServerFaults) *Cluster {
	fabric := netsim.NewFabric(e, netsim.DefaultGigabit())
	devs := make([]device.Device, n)
	for i := range devs {
		devs[i] = device.NewRAMDisk(e, "ram", 16<<30, 10*sim.Microsecond, 500e6)
	}
	return NewCluster(e, fabric, Config{Recovery: rc, Faults: faults}, devs)
}

// TestRecoveryHealthyMovesSameData: on a fault-free cluster the recovery
// path must move exactly the data the direct path moves and report no
// errors — it only changes how waiting is done, not what is asked for.
func TestRecoveryHealthyMovesSameData(t *testing.T) {
	run := func(rc RecoveryConfig) int64 {
		e := sim.NewEngine(1)
		c := newRecoveryCluster(e, 4, rc, nil)
		cl := c.NewClient("client0")
		e.Spawn("app", func(p *sim.Proc) {
			f, err := c.Create("data", 8<<20, c.DefaultLayout())
			if err != nil {
				t.Error(err)
				return
			}
			for off := int64(0); off < 8<<20; off += 1 << 20 {
				if err := cl.Read(p, f, off, 1<<20); err != nil {
					t.Error(err)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return c.Moved()
	}
	direct := run(RecoveryConfig{})
	recovered := run(RecoveryConfig{Enabled: true})
	if direct != recovered {
		t.Fatalf("moved: direct=%d recovered=%d", direct, recovered)
	}
}

// TestRetryRidesThroughTransientOutage: the server drops every job for
// the first 20 ms; bounded retries with backoff must carry the access
// through to success once the outage clears.
func TestRetryRidesThroughTransientOutage(t *testing.T) {
	e := sim.NewEngine(1)
	rc := RecoveryConfig{Enabled: true, Timeout: 5 * sim.Millisecond, MaxRetries: 8, Backoff: sim.Millisecond, MaxBackoff: 4 * sim.Millisecond}
	c := newRecoveryCluster(e, 1, rc, func(int) ServerFaults {
		return fakeFaults{until: 20 * sim.Millisecond}
	})
	cl := c.NewClient("client0")
	var readErr error
	var doneAt sim.Time
	e.Spawn("app", func(p *sim.Proc) {
		f, err := c.Create("data", 1<<20, c.DefaultLayout())
		if err != nil {
			t.Error(err)
			return
		}
		readErr = cl.Read(p, f, 0, 64<<10)
		doneAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readErr != nil {
		t.Fatalf("read did not recover: %v", readErr)
	}
	if doneAt < 20*sim.Millisecond {
		t.Fatalf("read finished at %v, before the outage cleared", doneAt)
	}
	if got := c.Servers()[0].FS().Moved(); got != 64<<10 {
		t.Fatalf("server moved %d, want exactly one serviced read (dropped jobs do no I/O)", got)
	}
}

// TestBackoffScheduleDeterministic: the retry schedule (and therefore
// the whole simulated timeline) replays bit-identically.
func TestBackoffScheduleDeterministic(t *testing.T) {
	run := func() sim.Time {
		e := sim.NewEngine(7)
		rc := RecoveryConfig{Enabled: true, Timeout: 3 * sim.Millisecond, MaxRetries: 6, Backoff: sim.Millisecond, MaxBackoff: 8 * sim.Millisecond}
		c := newRecoveryCluster(e, 2, rc, func(id int) ServerFaults {
			if id == 0 {
				return fakeFaults{until: 15 * sim.Millisecond}
			}
			return fakeFaults{}
		})
		cl := c.NewClient("client0")
		e.Spawn("app", func(p *sim.Proc) {
			f, err := c.Create("data", 1<<20, c.DefaultLayout())
			if err != nil {
				t.Error(err)
				return
			}
			if err := cl.Read(p, f, 0, 256<<10); err != nil {
				t.Error(err)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic recovery timeline: %v vs %v", a, b)
	}
}

// TestFailoverToReplica: server 0 is permanently dead, so position 0's
// chunks must be serviced from their chained-declustering replica on
// server 1, and the dead server's disk must stay untouched.
func TestFailoverToReplica(t *testing.T) {
	e := sim.NewEngine(1)
	rc := RecoveryConfig{Enabled: true, Failover: true, Timeout: 2 * sim.Millisecond, MaxRetries: 4, Backoff: sim.Millisecond}
	c := newRecoveryCluster(e, 2, rc, func(id int) ServerFaults {
		if id == 0 {
			return fakeFaults{until: sim.Time(1 << 62)}
		}
		return fakeFaults{}
	})
	cl := c.NewClient("client0")
	var readErr error
	e.Spawn("app", func(p *sim.Proc) {
		f, err := c.Create("data", 128<<10, c.DefaultLayout())
		if err != nil {
			t.Error(err)
			return
		}
		readErr = cl.Read(p, f, 0, 128<<10)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readErr != nil {
		t.Fatalf("read did not fail over: %v", readErr)
	}
	if got := c.Servers()[0].FS().Moved(); got != 0 {
		t.Fatalf("dead server moved %d bytes", got)
	}
	// Server 1 serviced its own 64 KiB stripe plus position 0's replica.
	if got := c.Servers()[1].FS().Moved(); got != 128<<10 {
		t.Fatalf("surviving server moved %d, want %d", got, 128<<10)
	}
}

// TestExhaustedRetriesReportTimeout: with every server dead forever the
// access must fail with a joined ErrRPCTimeout after its retry budget —
// and the engine must not deadlock while the client waits on replies
// that never come.
func TestExhaustedRetriesReportTimeout(t *testing.T) {
	e := sim.NewEngine(1)
	rc := RecoveryConfig{Enabled: true, Timeout: 2 * sim.Millisecond, MaxRetries: 2, Backoff: sim.Millisecond}
	c := newRecoveryCluster(e, 2, rc, func(int) ServerFaults {
		return fakeFaults{until: sim.Time(1 << 62)}
	})
	cl := c.NewClient("client0")
	var readErr error
	e.Spawn("app", func(p *sim.Proc) {
		f, err := c.Create("data", 1<<20, c.DefaultLayout())
		if err != nil {
			t.Error(err)
			return
		}
		readErr = cl.Read(p, f, 0, 128<<10)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readErr == nil {
		t.Fatal("read on a dead cluster succeeded")
	}
	if !errors.Is(readErr, ErrRPCTimeout) {
		t.Fatalf("err = %v, want ErrRPCTimeout in the chain", readErr)
	}
	// Both per-server RPCs exhausted their budgets; the join names both.
	if !strings.Contains(readErr.Error(), "ios0") || !strings.Contains(readErr.Error(), "ios1") {
		t.Fatalf("err = %v, want both servers named", readErr)
	}
}

// TestSlowWindowDelaysService: a slow window must stretch the access
// without failing it.
func TestSlowWindowDelaysService(t *testing.T) {
	run := func(delay sim.Time) sim.Time {
		e := sim.NewEngine(1)
		rc := RecoveryConfig{Enabled: true}
		c := newRecoveryCluster(e, 1, rc, func(int) ServerFaults {
			return fakeFaults{delay: delay, slowFrom: 0, slowTo: sim.Second}
		})
		cl := c.NewClient("client0")
		// Measure when the read returns, not e.Now(): the engine clock
		// always runs to the RPC timeout timer's expiry.
		var doneAt sim.Time
		e.Spawn("app", func(p *sim.Proc) {
			f, err := c.Create("data", 1<<20, c.DefaultLayout())
			if err != nil {
				t.Error(err)
				return
			}
			if err := cl.Read(p, f, 0, 64<<10); err != nil {
				t.Error(err)
			}
			doneAt = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return doneAt
	}
	healthy := run(0)
	slowed := run(10 * sim.Millisecond)
	if slowed < healthy+10*sim.Millisecond {
		t.Fatalf("slow window added %v, want >= 10ms", slowed-healthy)
	}
}

// TestFaultsRequireRecovery: injecting faults without the recovery path
// would deadlock clients on dropped jobs; the constructor must refuse.
func TestFaultsRequireRecovery(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Faults without Recovery.Enabled did not panic")
		}
	}()
	e := sim.NewEngine(1)
	newRecoveryCluster(e, 1, RecoveryConfig{}, func(int) ServerFaults { return fakeFaults{} })
}

// TestNoReplicasWithoutFailover: replica files exist only when failover
// can use them, so healthy layouts stay byte-for-byte unchanged.
func TestNoReplicasWithoutFailover(t *testing.T) {
	e := sim.NewEngine(1)
	c := newRecoveryCluster(e, 2, RecoveryConfig{Enabled: true}, nil)
	f, err := c.Create("data", 128<<10, c.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.replica) != 0 {
		t.Fatalf("replicas allocated without failover: %d", len(f.replica))
	}
	e2 := sim.NewEngine(1)
	c2 := newRecoveryCluster(e2, 2, RecoveryConfig{Enabled: true, Failover: true}, nil)
	f2, err := c2.Create("data", 128<<10, c2.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.replica) != 2 || !f2.hasReplica(0) || !f2.hasReplica(1) {
		t.Fatalf("failover file missing replicas: %+v", f2.replica)
	}
	if f2.replicaServer(0) != 1 || f2.replicaServer(1) != 0 {
		t.Fatalf("replica placement wrong: %d, %d", f2.replicaServer(0), f2.replicaServer(1))
	}
}

// workerCtxTracer samples every server worker's request context at each
// dispatched event: which request a worker is servicing, and which
// access the application has in flight at that moment.
type workerCtxTracer struct {
	workers []*sim.Proc
	current *uint64 // the application's access in flight (its request ID)
	seen    []ctxSample
}

type ctxSample struct {
	req      *ioreq.Request
	id       uint64
	attempt  int
	inFlight uint64
}

func (tr *workerCtxTracer) EventDispatched(sim.Time, uint64) {
	for _, w := range tr.workers {
		if r, ok := w.Ctx().(*ioreq.Request); ok && r != nil {
			tr.seen = append(tr.seen, ctxSample{req: r, id: r.ID, attempt: r.Attempt, inFlight: *tr.current})
		}
	}
}

func (tr *workerCtxTracer) ProcStarted(p *sim.Proc) {
	if strings.Contains(p.Name(), ".worker") {
		tr.workers = append(tr.workers, p)
	}
}

func (tr *workerCtxTracer) ProcEnded(*sim.Proc)                           {}
func (tr *workerCtxTracer) ResourceQueued(*sim.Resource, *sim.Proc, int)  {}
func (tr *workerCtxTracer) ResourceAcquired(*sim.Resource, int, sim.Time) {}
func (tr *workerCtxTracer) ResourceReleased(*sim.Resource, int)           {}

// TestAbandonedAttemptIsNeverReused: a job that timed out may still be
// serviced late, so neither it nor its request may be handed to a later
// access. The first access's first attempt is stuck behind a 10 ms slow
// window, times out after 2 ms and is retried; the accesses after it run
// while that attempt is still being serviced. Every request a server
// worker services must keep the identity it was issued with, and the
// late service must report the abandoned attempt's own identity.
func TestAbandonedAttemptIsNeverReused(t *testing.T) {
	e := sim.NewEngine(1)
	var current uint64
	tr := &workerCtxTracer{current: &current}
	e.SetTracer(tr)
	rc := RecoveryConfig{Enabled: true, Timeout: 2 * sim.Millisecond, MaxRetries: 4, Backoff: sim.Millisecond}
	c := newRecoveryCluster(e, 1, rc, func(int) ServerFaults {
		return fakeFaults{delay: 10 * sim.Millisecond, slowFrom: 0, slowTo: sim.Millisecond}
	})
	cl := c.NewClient("client0")
	e.Spawn("app", func(p *sim.Proc) {
		f, err := c.Create("data", 1<<20, c.DefaultLayout())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 16; i++ {
			current = uint64(i + 1) // cl.Read draws the next request ID
			if err := cl.Read(p, f, int64(i)*(64<<10), 64<<10); err != nil {
				t.Error(err)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	identity := map[*ioreq.Request]ctxSample{}
	late := false
	for _, s := range tr.seen {
		if first, ok := identity[s.req]; !ok {
			identity[s.req] = s
		} else if first.id != s.id || first.attempt != s.attempt {
			t.Fatalf("request %p serviced as access %d attempt %d, then as access %d attempt %d",
				s.req, first.id, first.attempt, s.id, s.attempt)
		}
		if s.id == 1 && s.attempt == 0 && s.inFlight > 1 {
			late = true
		}
	}
	if !late {
		t.Fatal("the abandoned first attempt was not seen serviced during a later access")
	}
}
