// Package pfs simulates a PVFS-style parallel file system: files are
// striped across I/O servers, each server owning a local file system on
// its own device and a NIC. Clients split requests into per-server chunk
// lists, ship them as RPCs over the simulated fabric, and servers service
// them concurrently — the source of the I/O parallelism that the BPS
// paper's concurrency experiments (Figs. 9–11) exercise.
package pfs

import (
	"fmt"

	"bps/internal/device"
	"bps/internal/fsim"
	"bps/internal/netsim"
	"bps/internal/obs"
	"bps/internal/sim"
)

// Config parameterizes a cluster.
type Config struct {
	// DefaultStripeSize is used by layouts that do not override it
	// (PVFS2's default is 64 KiB).
	DefaultStripeSize int64

	// ServerWorkers is the number of concurrent request handlers per
	// server; >1 lets a server overlap one job's network reply with the
	// next job's disk read.
	ServerWorkers int

	// RequestMsgBytes is the on-wire size of one RPC request message.
	RequestMsgBytes int64

	// ServerFS configures each server's local file system (cache size,
	// readahead, ...). The Name field is overridden per server.
	ServerFS fsim.Config

	// MetadataService is the metadata server's per-operation service
	// time (lookup/open). Default 200 µs; metadata RPCs also pay the
	// fabric's round-trip cost and queue under load.
	MetadataService sim.Time

	// Recovery configures the client-side recovery policy (per-RPC
	// timeout, bounded retries with capped exponential backoff,
	// failover to replica servers). Disabled by default; when disabled
	// the client access path is exactly the historical one.
	Recovery RecoveryConfig

	// Faults, when non-nil, supplies each server's fault model at
	// cluster construction. It requires Recovery.Enabled: a down server
	// silently drops jobs, and only the recovery path can time them out
	// — NewCluster panics on the inconsistent combination rather than
	// letting clients deadlock.
	Faults func(id int) ServerFaults
}

// ServerFaults is one server's fault model, queried by its workers.
// Implementations must be pure functions of simulated time (see
// internal/faults): workers on different engines may interleave
// arbitrarily under parallel sweeps, and only stateless answers keep
// results bit-identical.
type ServerFaults interface {
	// Down reports whether the server drops jobs at time now (permanent
	// death or a transient fail window).
	Down(now sim.Time) bool

	// SlowDelay returns extra per-job service delay at time now.
	SlowDelay(now sim.Time) sim.Time
}

// RecoveryConfig is the client-side recovery policy.
type RecoveryConfig struct {
	// Enabled turns the recovery path on. All other fields are ignored
	// (and no replicas are created) when false.
	Enabled bool

	// Timeout is the per-RPC timeout, measured from when the request
	// has been handed to the server queue. Default 50 ms.
	Timeout sim.Time

	// MaxRetries bounds the retry attempts after the first try.
	// Default 4.
	MaxRetries int

	// Backoff is the initial retry backoff, doubling per attempt up to
	// MaxBackoff, plus jitter of up to half the current backoff drawn
	// from the engine's RNG. Defaults 1 ms and 16 ms.
	Backoff    sim.Time
	MaxBackoff sim.Time

	// Failover alternates retry attempts between a chunk's primary
	// server and its replica (chained declustering: position i's
	// replica lives on the layout's next server). Files created on a
	// failover-enabled cluster allocate replica files at create time.
	Failover bool
}

func (r RecoveryConfig) withDefaults() RecoveryConfig {
	if !r.Enabled {
		return r
	}
	if r.Timeout <= 0 {
		r.Timeout = 50 * sim.Millisecond
	}
	if r.MaxRetries <= 0 {
		r.MaxRetries = 4
	}
	if r.Backoff <= 0 {
		r.Backoff = sim.Millisecond
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 16 * sim.Millisecond
	}
	return r
}

func (c Config) withDefaults() Config {
	if c.DefaultStripeSize <= 0 {
		c.DefaultStripeSize = 64 << 10
	}
	if c.ServerWorkers <= 0 {
		c.ServerWorkers = 2
	}
	if c.RequestMsgBytes <= 0 {
		c.RequestMsgBytes = 256
	}
	if c.MetadataService <= 0 {
		c.MetadataService = 200 * sim.Microsecond
	}
	c.Recovery = c.Recovery.withDefaults()
	return c
}

// Cluster is a set of I/O servers on a shared fabric, plus a metadata
// server handling lookups.
type Cluster struct {
	eng     *sim.Engine
	fabric  *netsim.Fabric
	cfg     Config
	servers []*Server
	files   map[string]*File
	mds     *metadataServer

	// Observability handles; all nil-safe when the engine is unobserved.
	o         *obs.Observer
	fanout    *obs.Histogram // servers touched per client access
	mdsOps    *obs.Counter
	retries   *obs.Counter // RPC retry attempts across all clients
	timeouts  *obs.Counter // RPCs abandoned on timeout
	failovers *obs.Counter // retries redirected to a replica server
	failed    *obs.Counter // RPCs that exhausted their retry budget
}

// metadataServer services lookup/open RPCs, one at a time: clients
// serialize on svc.
type metadataServer struct {
	nic *netsim.NIC
	svc *sim.Resource
	ops uint64
}

// Server is one I/O server: NIC + local file system + request queue
// drained by worker processes.
type Server struct {
	id     int
	nic    *netsim.NIC
	fs     *fsim.FileSystem
	queue  *sim.Queue
	faults ServerFaults // nil = healthy server

	// Observability handles; all nil-safe when the engine is unobserved.
	o         *obs.Observer
	requests  *obs.Counter
	bytes     *obs.Counter
	dropped   *obs.Counter // jobs silently dropped while down
	slowed    *obs.Counter // jobs delayed by a slow window
	serveName string       // precomputed span name
}

// ID returns the server's index within the cluster.
func (s *Server) ID() int { return s.id }

// FS exposes the server's local file system (for stats and cache flush).
func (s *Server) FS() *fsim.FileSystem { return s.fs }

// NewCluster builds a cluster with one server per device, starting
// ServerWorkers handler processes per server.
func NewCluster(e *sim.Engine, fabric *netsim.Fabric, cfg Config, devices []device.Device) *Cluster {
	cfg = cfg.withDefaults()
	if cfg.Faults != nil && !cfg.Recovery.Enabled {
		panic("pfs: Config.Faults requires Recovery.Enabled — a down server drops jobs silently, and only the recovery path can time them out")
	}
	c := &Cluster{
		eng:    e,
		fabric: fabric,
		cfg:    cfg,
		files:  make(map[string]*File),
	}
	c.mds = &metadataServer{
		nic: fabric.NewNIC("mds"),
		svc: e.NewResource("mds.svc", 1),
	}
	c.o = obs.Get(e)
	reg := c.o.Registry()
	c.fanout = reg.Histogram("pfs/client/fanout")
	c.mdsOps = reg.Counter("pfs/mds/ops")
	c.retries = reg.Counter("pfs/client/retries")
	c.timeouts = reg.Counter("pfs/client/timeouts")
	c.failovers = reg.Counter("pfs/client/failovers")
	c.failed = reg.Counter("pfs/client/failed_rpcs")
	if reg != nil {
		svc := c.mds.svc
		reg.Probe("pfs/mds/utilization", func() float64 { return svc.Utilization(e.Now()) })
	}
	for i, dev := range devices {
		srv := &Server{
			id:        i,
			nic:       fabric.NewNIC(fmt.Sprintf("ios%d", i)),
			fs:        fsim.New(dev, cfg.ServerFS),
			queue:     e.NewQueue(),
			o:         c.o,
			requests:  reg.Counter(fmt.Sprintf("pfs/ios%d/requests", i)),
			bytes:     reg.Counter(fmt.Sprintf("pfs/ios%d/bytes", i)),
			dropped:   reg.Counter(fmt.Sprintf("pfs/ios%d/dropped", i)),
			slowed:    reg.Counter(fmt.Sprintf("pfs/ios%d/slowed", i)),
			serveName: fmt.Sprintf("ios%d serve", i),
		}
		if cfg.Faults != nil {
			srv.faults = cfg.Faults(i)
		}
		if reg != nil {
			q := srv.queue
			reg.Probe(fmt.Sprintf("pfs/ios%d/queue_depth", i), func() float64 { return float64(q.Len()) })
		}
		c.servers = append(c.servers, srv)
		for w := 0; w < cfg.ServerWorkers; w++ {
			e.SpawnDaemon(fmt.Sprintf("ios%d.worker%d", i, w), srv.worker)
		}
	}
	return c
}

// Servers returns the cluster's servers.
func (c *Cluster) Servers() []*Server { return c.servers }

// Moved returns total bytes moved through all server devices — the
// file-system-level data volume that the bandwidth metric sees.
func (c *Cluster) Moved() int64 {
	var m int64
	for _, s := range c.servers {
		m += s.fs.Moved()
	}
	return m
}

// FlushCaches drops every server's page cache (pre-run flush).
func (c *Cluster) FlushCaches() {
	for _, s := range c.servers {
		s.fs.FlushCache()
	}
}

// Layout describes a file's striping, like PVFS2 file-distribution
// attributes. Servers lists cluster server IDs in round-robin order; a
// single-element list pins the whole file to one server (the paper's
// "pure" concurrency setup).
type Layout struct {
	StripeSize int64
	Servers    []int
}

// DefaultLayout stripes over all servers with the default stripe size.
func (c *Cluster) DefaultLayout() Layout {
	ids := make([]int, len(c.servers))
	for i := range ids {
		ids[i] = i
	}
	return Layout{StripeSize: c.cfg.DefaultStripeSize, Servers: ids}
}

// PinnedLayout places the whole file on a single server.
func (c *Cluster) PinnedLayout(server int) Layout {
	return Layout{StripeSize: c.cfg.DefaultStripeSize, Servers: []int{server}}
}

func (c *Cluster) validateLayout(l Layout) (Layout, error) {
	if l.StripeSize <= 0 {
		l.StripeSize = c.cfg.DefaultStripeSize
	}
	if len(l.Servers) == 0 {
		return l, fmt.Errorf("pfs: layout has no servers")
	}
	for _, id := range l.Servers {
		if id < 0 || id >= len(c.servers) {
			return l, fmt.Errorf("pfs: layout references unknown server %d", id)
		}
	}
	return l, nil
}

// File is a striped file.
type File struct {
	cluster *Cluster
	name    string
	size    int64
	layout  Layout
	// local[i] is the backing file on layout.Servers[i]'s file system.
	local []*fsim.File
	// replica[i], when failover is enabled, is position i's replica on
	// the layout's next server (chained declustering); nil otherwise.
	replica []*fsim.File
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the logical file size.
func (f *File) Size() int64 { return f.size }

// Layout returns the file's striping attributes.
func (f *File) Layout() Layout { return f.layout }

// Create allocates a striped file across the layout's servers.
func (c *Cluster) Create(name string, size int64, layout Layout) (*File, error) {
	if size <= 0 {
		return nil, fmt.Errorf("pfs: create %q: size %d must be positive", name, size)
	}
	if _, ok := c.files[name]; ok {
		return nil, fmt.Errorf("pfs: create %q: already exists", name)
	}
	layout, err := c.validateLayout(layout)
	if err != nil {
		return nil, fmt.Errorf("pfs: create %q: %w", name, err)
	}
	f := &File{cluster: c, name: name, size: size, layout: layout}
	for pos := range layout.Servers {
		localSize := localSizeFor(size, layout.StripeSize, len(layout.Servers), pos)
		if localSize == 0 {
			// Still create a minimal backing file so the slice aligns.
			localSize = 1
		}
		srv := c.servers[layout.Servers[pos]]
		lf, err := srv.fs.Create(name, localSize)
		if err != nil {
			return nil, fmt.Errorf("pfs: create %q on server %d: %w", name, srv.id, err)
		}
		f.local = append(f.local, lf)
	}
	// Failover needs somewhere to fail over to: allocate each position's
	// replica on the layout's next server (chained declustering). Only
	// failover-enabled clusters pay the extra allocation, so healthy
	// stacks are byte-for-byte unchanged.
	if c.cfg.Recovery.Enabled && c.cfg.Recovery.Failover && len(layout.Servers) > 1 {
		for pos := range layout.Servers {
			localSize := localSizeFor(size, layout.StripeSize, len(layout.Servers), pos)
			if localSize == 0 {
				localSize = 1
			}
			srv := c.servers[f.replicaServer(pos)]
			rf, err := srv.fs.Create(fmt.Sprintf("%s.r%d", name, pos), localSize)
			if err != nil {
				return nil, fmt.Errorf("pfs: create replica %q pos %d on server %d: %w", name, pos, srv.id, err)
			}
			f.replica = append(f.replica, rf)
		}
	}
	c.files[name] = f
	return f, nil
}

// replicaServer returns the cluster server ID hosting position pos's
// replica: the next server in the layout's round-robin order.
func (f *File) replicaServer(pos int) int {
	return f.layout.Servers[(pos+1)%len(f.layout.Servers)]
}

// hasReplica reports whether position pos has a replica file.
func (f *File) hasReplica(pos int) bool {
	return pos < len(f.replica) && f.replica[pos] != nil
}

// localFor returns the backing file a job at position pos touches:
// the primary local file, or the replica when the job failed over.
func (f *File) localFor(pos int, replica bool) *fsim.File {
	if replica && pos < len(f.replica) {
		return f.replica[pos]
	}
	return f.local[pos]
}

// Open returns an existing file without consuming simulated time
// (setup-phase lookup). For a runtime open that pays the metadata RPC,
// use Client.Open.
func (c *Cluster) Open(name string) (*File, error) {
	f, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("pfs: open %q: no such file", name)
	}
	return f, nil
}

// MetadataOps returns the number of metadata RPCs serviced.
func (c *Cluster) MetadataOps() uint64 { return c.mds.ops }

// localSizeFor computes the number of bytes of an size-byte file that land
// on the server at round-robin position pos of n servers.
func localSizeFor(size, stripe int64, n int, pos int) int64 {
	fullStripes := size / stripe
	tail := size % stripe
	k := int64(pos)
	var local int64
	if fullStripes > k {
		local = ((fullStripes - k - 1) / int64(n)) * stripe
		local += stripe
	}
	// The partial tail stripe has global index fullStripes and belongs to
	// position fullStripes % n.
	if tail > 0 && fullStripes%int64(n) == k {
		local += tail
	}
	return local
}

// chunk is one contiguous piece of a request on a single server.
type chunk struct {
	pos      int   // position within layout.Servers
	localOff int64 // offset in the server-local file
	size     int64
}

// chunksFor splits a global byte range into per-server chunks in global
// offset order, reusing buf's storage.
func (f *File) chunksFor(buf []chunk, off, size int64) []chunk {
	ss := f.layout.StripeSize
	n := int64(len(f.layout.Servers))
	out := buf[:0]
	for size > 0 {
		s := off / ss
		within := off % ss
		run := ss - within
		if run > size {
			run = size
		}
		pos := int(s % n)
		localOff := (s/n)*ss + within
		// Merge with the previous chunk when contiguous on the same server
		// (always the case for n == 1).
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.pos == pos && last.localOff+last.size == localOff {
				last.size += run
				off += run
				size -= run
				continue
			}
		}
		out = append(out, chunk{pos: pos, localOff: localOff, size: run})
		off += run
		size -= run
	}
	return out
}
