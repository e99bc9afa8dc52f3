package pfs

import (
	"errors"
	"fmt"

	"bps/internal/ioreq"
	"bps/internal/netsim"
	"bps/internal/obs"
	"bps/internal/sim"
)

// Client is a compute-node-side PFS client with its own NIC.
type Client struct {
	cluster *Cluster
	nic     *netsim.NIC

	// Per-client scratch for access. chunks is done with before the
	// access first parks, so procs sharing the client reuse one slice.
	// A fan-out list is held across parks, so each access pops its own
	// from spareJobs and pushes it back, cleared, when it ends. freeJobs
	// holds the jobs of ended direct-path accesses, kept with their
	// pieces storage and future for newJob to reuse.
	chunks    []chunk
	spareJobs [][]*job
	freeJobs  []*job
}

// NewClient attaches a client (compute node) to the cluster fabric.
func (c *Cluster) NewClient(name string) *Client {
	return &Client{cluster: c, nic: c.fabric.NewNIC(name)}
}

// Open looks a file up through the metadata server, paying the RPC
// round trip and queueing behind other metadata operations — the
// runtime equivalent of Cluster.Open.
func (cl *Client) Open(p *sim.Proc, name string) (*File, error) {
	c := cl.cluster
	c.fabric.Transfer(p, cl.nic, c.mds.nic, c.cfg.RequestMsgBytes)
	c.mds.svc.Acquire(p)
	p.Sleep(c.cfg.MetadataService)
	c.mds.ops++
	c.mdsOps.Add(1)
	c.mds.svc.Release()
	f, err := c.Open(name)
	// The reply travels back whether the lookup succeeded or not.
	c.fabric.Transfer(p, c.mds.nic, cl.nic, c.cfg.RequestMsgBytes)
	return f, err
}

// ErrRPCTimeout reports that a server failed to reply within the
// recovery policy's per-RPC timeout.
var ErrRPCTimeout = errors.New("pfs: rpc timeout")

// job is one RPC shipped to a server: a list of contiguous local pieces to
// read or write on behalf of one client call. All pieces share one stripe
// position. Under recovery, every attempt is a fresh job with a fresh
// future: a timed-out job may still be sitting in a server queue, and its
// eventual completion must not touch the retry's state. On the direct
// path every job has completed, and its server worker has let go of it,
// by the time the access returns, so the client recycles it (newJob).
type job struct {
	client  *Client
	file    *File
	pieces  []chunk
	write   bool
	bytes   int64
	replica bool // service against the position's replica file
	// req is the access's request routed to this job's stripe position:
	// a copy, because the job can outlive the access's Serve (a timed-out
	// attempt still queued on a server).
	req  ioreq.Request
	done *sim.Future
	err  error
}

// newJob returns an empty job for an access to f, reusing a recycled
// direct-path job (its pieces storage and its future, reset) when the
// client has one.
func (cl *Client) newJob(p *sim.Proc, f *File, write bool) *job {
	n := len(cl.freeJobs)
	if n == 0 {
		return &job{client: cl, file: f, write: write, done: p.NewFuture()}
	}
	j := cl.freeJobs[n-1]
	cl.freeJobs = cl.freeJobs[:n-1]
	*j = job{client: cl, file: f, pieces: j.pieces[:0], write: write, done: j.done}
	j.done.Reset()
	return j
}

// Layer adapts the client+file pair into an ioreq layer: requests
// entering Serve fan out as per-server RPCs exactly as Read/Write do,
// and the request travels with each job so server-side spans join the
// access's end-to-end span chain.
func (cl *Client) Layer(f *File) ioreq.Layer {
	return ioreq.Func(func(p *sim.Proc, req *ioreq.Request) error {
		return cl.access(p, f, req)
	})
}

// Read reads size bytes at global offset off, blocking the calling
// process until every involved server has replied.
func (cl *Client) Read(p *sim.Proc, f *File, off, size int64) error {
	return cl.access(p, f, ioreq.New(p, ioreq.OpRead, off, size, f.name))
}

// Write writes size bytes at global offset off.
func (cl *Client) Write(p *sim.Proc, f *File, off, size int64) error {
	return cl.access(p, f, ioreq.New(p, ioreq.OpWrite, off, size, f.name))
}

func (cl *Client) access(p *sim.Proc, f *File, req *ioreq.Request) error {
	off, size, write := req.Off, req.Size, req.Op == ioreq.OpWrite
	if size <= 0 {
		return fmt.Errorf("pfs: access size %d must be positive", size)
	}
	if off < 0 || off+size > f.size {
		return fmt.Errorf("pfs: access [%d,%d) out of bounds (file size %d)", off, off+size, f.size)
	}
	prev := p.Ctx()
	p.SetCtx(req)
	defer p.SetCtx(prev)
	cl.chunks = f.chunksFor(cl.chunks, off, size)
	var jobs []*job
	if n := len(cl.spareJobs); n > 0 {
		jobs, cl.spareJobs = cl.spareJobs[n-1], cl.spareJobs[:n-1]
	}

	// Group chunks by server position, preserving per-server order: one
	// RPC per involved server, as PVFS aggregates list I/O. The fan-out
	// is at most the stripe count, so a scan of the access's own jobs
	// finds a position's job. Each job carries a child of req routed to
	// its stripe position, so every server-side span keeps the request's
	// identity.
	for _, ch := range cl.chunks {
		var j *job
		for _, k := range jobs {
			if k.pieces[0].pos == ch.pos {
				j = k
				break
			}
		}
		if j == nil {
			j = cl.newJob(p, f, write)
			j.req = *req
			j.req.Off, j.req.Size, j.req.Stripe = off, 0, ch.pos
			jobs = append(jobs, j)
		}
		j.pieces = append(j.pieces, ch)
		j.bytes += ch.size
		j.req.Size = j.bytes
	}

	cl.cluster.fanout.Observe(int64(len(jobs)))
	var sp obs.Span
	if cl.cluster.o.Spanning() {
		name := "read"
		if write {
			name = "write"
		}
		var args map[string]any
		if cl.cluster.o.Tracing() {
			args = map[string]any{"offset": off, "size": size, "fanout": len(jobs)}
		}
		sp = cl.cluster.o.Begin(p, "pfs", name, args)
	}

	var err error
	if cl.cluster.cfg.Recovery.Enabled {
		err = cl.accessRecovered(p, f, jobs)
	} else {
		err = cl.accessDirect(p, f, jobs)
		cl.freeJobs = append(cl.freeJobs, jobs...)
	}
	sp.End()
	clear(jobs)
	cl.spareJobs = append(cl.spareJobs, jobs[:0])
	return err
}

// accessDirect is the historical fire-and-wait path: ship every RPC,
// wait for every reply, aggregate whatever failed. No timeouts, no
// retries — and no extra events, so healthy-stack schedules are
// byte-for-byte what they were before recovery existed.
func (cl *Client) accessDirect(p *sim.Proc, f *File, jobs []*job) error {
	fabric := cl.cluster.fabric
	for _, j := range jobs {
		srv := cl.cluster.servers[f.layout.Servers[j.pieces[0].pos]]
		// Ship the request message. For writes the payload travels with
		// the request; for reads it comes back in the reply.
		msg := cl.cluster.cfg.RequestMsgBytes
		if j.write {
			msg += j.bytes
		}
		fabric.Transfer(p, cl.nic, srv.nic, msg)
		srv.queue.Put(j)
	}
	var errs []error
	for _, j := range jobs {
		j.done.Wait(p)
		if j.err != nil {
			errs = append(errs, fmt.Errorf("pfs: ios%d: %w", f.layout.Servers[j.pieces[0].pos], j.err))
		}
	}
	return errors.Join(errs...)
}

// accessRecovered drives each per-server RPC through the recovery state
// machine. Fan-out RPCs run as child processes so one straggling or
// dead server's timeout and retries overlap the others' progress, like
// a real client's per-request threads.
func (cl *Client) accessRecovered(p *sim.Proc, f *File, jobs []*job) error {
	if len(jobs) == 1 {
		return cl.runRecovered(p, f, jobs[0])
	}
	wg := p.NewWaitGroup()
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		i, j := i, j
		wg.Add(1)
		p.Spawn(fmt.Sprintf("%s.rpc%d", p.Name(), i), func(sub *sim.Proc) {
			sub.SetCtx(&j.req) // child procs inherit the request context
			errs[i] = cl.runRecovered(sub, f, j)
			wg.Done()
		})
	}
	wg.Wait(p)
	return errors.Join(errs...)
}

// runRecovered executes one per-server RPC under the recovery policy:
// send, wait with a per-RPC timeout, and on failure retry with capped
// exponential backoff plus engine-RNG jitter, alternating to the
// position's replica server when failover is enabled. Every attempt
// ships a fresh job with a fresh future — an abandoned attempt may
// still be serviced later (wasted work, as in a real system), and its
// late completion must not wake anyone.
func (cl *Client) runRecovered(p *sim.Proc, f *File, base *job) error {
	c := cl.cluster
	rc := c.cfg.Recovery
	pos := base.pieces[0].pos
	backoff := rc.Backoff
	useReplica := false
	var errs []error
	for attempt := 0; ; attempt++ {
		j := base
		if attempt > 0 {
			// Each retry carries its own request copy: the abandoned
			// attempt's job may still be queued on a server and serviced
			// late, and stamping Attempt/Deadline on a shared struct
			// would rewrite the request that late servicing reports.
			j = &job{
				client:  cl,
				file:    f,
				pieces:  base.pieces,
				write:   base.write,
				bytes:   base.bytes,
				replica: useReplica,
				req:     base.req,
				done:    p.NewFuture(),
			}
		}
		j.req.Attempt = attempt
		j.req.Deadline = p.Now() + rc.Timeout
		srvID := f.layout.Servers[pos]
		if j.replica {
			srvID = f.replicaServer(pos)
		}
		srv := c.servers[srvID]
		msg := c.cfg.RequestMsgBytes
		if j.write {
			msg += j.bytes
		}
		c.fabric.Transfer(p, cl.nic, srv.nic, msg)
		srv.queue.Put(j)

		replied := j.done.WaitTimeout(p, rc.Timeout)
		switch {
		case replied && j.err == nil:
			return nil
		case replied:
			errs = append(errs, fmt.Errorf("pfs: ios%d attempt %d: %w", srvID, attempt+1, j.err))
		default:
			c.timeouts.Add(1)
			errs = append(errs, fmt.Errorf("pfs: ios%d attempt %d: %w", srvID, attempt+1, ErrRPCTimeout))
		}
		if attempt >= rc.MaxRetries {
			c.failed.Add(1)
			return errors.Join(errs...)
		}

		// Back off before the retry; the span makes the recovery gap
		// visible on the proc's Chrome-trace track.
		c.retries.Add(1)
		var rsp obs.Span
		if c.o.Spanning() {
			var args map[string]any
			if c.o.Tracing() {
				args = map[string]any{
					"server": srvID, "attempt": attempt + 1, "backoff_ns": int64(backoff),
				}
			}
			rsp = c.o.Begin(p, "pfs", "retry", args)
		}
		jitter := sim.Time(p.Rand().Int63n(int64(backoff/2) + 1))
		p.Sleep(backoff + jitter)
		rsp.End()
		backoff *= 2
		if backoff > rc.MaxBackoff {
			backoff = rc.MaxBackoff
		}
		if rc.Failover && f.hasReplica(pos) {
			useReplica = !useReplica
			if useReplica {
				c.failovers.Add(1)
			}
		}
	}
}

// worker is a server request-handler process: it drains the queue, does
// the local I/O, and ships read replies back to the client.
func (s *Server) worker(p *sim.Proc) {
	for {
		j := s.queue.Get(p).(*job)
		if s.faults != nil {
			now := p.Now()
			if s.faults.Down(now) {
				// Drop the job without completing its future: the
				// client's per-RPC timeout is what notices.
				s.dropped.Add(1)
				continue
			}
			if d := s.faults.SlowDelay(now); d > 0 {
				s.slowed.Add(1)
				p.Sleep(d)
			}
		}
		s.requests.Add(1)
		s.bytes.Add(j.bytes)
		p.SetCtx(&j.req) // server-side spans join the request's span chain
		var sp obs.Span
		if s.o.Spanning() {
			var args map[string]any
			if s.o.Tracing() {
				args = map[string]any{"bytes": j.bytes, "write": j.write}
			}
			sp = s.o.Begin(p, "pfs", s.serveName, args)
		}
		for _, piece := range j.pieces {
			lf := j.file.localFor(piece.pos, j.replica)
			var err error
			if j.write {
				err = lf.WriteAt(p, piece.localOff, piece.size)
			} else {
				err = lf.ReadAt(p, piece.localOff, piece.size)
			}
			if err != nil && j.err == nil {
				j.err = err
			}
		}
		// Reads reply with the data; writes and failures ack only. The
		// reply's delivery completes the job future.
		reply := j.file.cluster.cfg.RequestMsgBytes
		if !j.write && j.err == nil {
			reply += j.bytes
		}
		j.file.cluster.fabric.Transfer(p, s.nic, j.client.nic, reply)
		j.done.Complete()
		sp.End()
		p.SetCtx(nil)
	}
}
