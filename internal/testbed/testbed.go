// Package testbed assembles the simulated equivalents of the BPS paper's
// cluster (§IV.B) from the substrate packages: 7200 RPM SATA HDDs, PCI-E
// SSDs, Gigabit Ethernet with a finite shared backplane, and PVFS-like
// I/O servers running a local file system with kernel readahead. Both the
// paper-reproduction experiments and the public API build their systems
// here.
package testbed

import (
	"fmt"

	"bps/internal/device"
	"bps/internal/faults"
	"bps/internal/fsim"
	"bps/internal/ioreq"
	"bps/internal/netsim"
	"bps/internal/pfs"
	"bps/internal/sim"
	"bps/internal/workload"
)

// Testbed constants mirroring the paper's cluster.
const (
	// ServerCacheBytes is each I/O server's page-cache size.
	ServerCacheBytes = 1 << 30

	// ServerReadAhead is each server's kernel readahead window.
	ServerReadAhead = 1 << 20

	// BackplaneRate is the shared-fabric aggregate limit — the stand-in
	// for every cross-stream coupling the real cluster has (switch
	// backplane, client VFS, PVFS metadata path). See DESIGN.md.
	BackplaneRate = 400e6
)

// Media selects a device model.
type Media int

// The two storage media in the paper's testbed.
const (
	HDD Media = iota
	SSD
)

// String implements fmt.Stringer.
func (m Media) String() string {
	if m == HDD {
		return "hdd"
	}
	return "ssd"
}

// NewDevice builds one device of the given media with the paper-testbed
// defaults.
func NewDevice(e *sim.Engine, m Media) device.Device {
	if m == SSD {
		return device.NewSSD(e, device.DefaultSSD())
	}
	return device.NewHDD(e, device.DefaultHDD())
}

// NewFTLSSD builds an SSD under sustained-write conditions: FTL write
// amplification 2.5 and periodic foreground garbage-collection stalls,
// for the write-workload extension experiments.
func NewFTLSSD(e *sim.Engine) device.Device {
	cfg := device.DefaultSSD()
	cfg.WriteAmplification = 2.5
	cfg.GCPauseEvery = 256 << 20
	cfg.GCPause = 20 * sim.Millisecond
	return device.NewSSD(e, cfg)
}

// NewLocalEnvOn builds a local file system on an explicit device.
func NewLocalEnvOn(e *sim.Engine, dev device.Device, nfiles int, fileSize int64) (*workload.LocalEnv, error) {
	fs := fsim.New(dev, fsim.Config{})
	env := &workload.LocalEnv{FS: fs}
	for i := 0; i < nfiles; i++ {
		f, err := fs.Create(fmt.Sprintf("file%d", i), fileSize)
		if err != nil {
			return nil, err
		}
		env.Files = append(env.Files, f)
	}
	return env, nil
}

// NewLocalEnv builds a direct-attached local file system on one device
// with nfiles preallocated files. No page cache: the paper flushes caches
// before each local run.
func NewLocalEnv(e *sim.Engine, m Media, nfiles int, fileSize int64) (*workload.LocalEnv, error) {
	return NewLocalEnvOn(e, NewDevice(e, m), nfiles, fileSize)
}

// ClusterSpec describes a PVFS-like deployment for one run.
type ClusterSpec struct {
	Servers int
	Media   Media
	Clients int

	// Faults, when its plan is enabled, wires fault injection into
	// every layer of the cluster: device wrappers, the fabric's link
	// faults, and per-server fail/slow windows. An enabled plan also
	// turns on client recovery (a cluster that injects faults without
	// retries would deadlock on the first dropped job).
	Faults faults.Config

	// Recovery overrides the client recovery policy. The zero value
	// means: recovery off for healthy clusters, DefaultRecovery() when
	// Faults is enabled.
	Recovery pfs.RecoveryConfig

	// ClientCache, when its CapacityBytes is positive, layers a shared
	// client-side page cache with read-ahead in front of every client's
	// pfs pipeline (see ioreq.CacheConfig). The zero value leaves the
	// request path exactly as it was before the cache existed.
	ClientCache ioreq.CacheConfig

	// ServerCache overrides each I/O server's page-cache size: 0 keeps
	// the testbed default (ServerCacheBytes with ServerReadAhead),
	// negative disables server caching and readahead entirely — the
	// configuration the clientcache sweep uses so device traffic tracks
	// client-cache misses one-for-one.
	ServerCache int64
}

// DefaultRecovery is the recovery policy fault-injected testbeds use
// unless the spec overrides it: pfs defaults (50 ms RPC timeout, 4
// retries, 1–16 ms backoff) plus failover to replica servers.
func DefaultRecovery() pfs.RecoveryConfig {
	return pfs.RecoveryConfig{Enabled: true, Failover: true}
}

// NewCluster builds the cluster testbed: Gigabit fabric with a finite
// backplane, one device per server, server-side cache and readahead.
func NewCluster(e *sim.Engine, spec ClusterSpec) (*pfs.Cluster, []*pfs.Client) {
	fabric := netsim.NewFabric(e, netsim.Config{
		Bandwidth:     125e6,
		Latency:       50 * sim.Microsecond,
		MTU:           9000,
		FrameOverhead: sim.Microsecond,
		BackplaneRate: BackplaneRate,
	})
	if lf := faults.NewLink(spec.Faults); lf != nil {
		fabric.SetFaults(lf)
	}
	devs := make([]device.Device, spec.Servers)
	for i := range devs {
		devs[i] = faults.WrapDevice(e, NewDevice(e, spec.Media), spec.Faults,
			fmt.Sprintf("ios%d.%s", i, spec.Media))
	}
	scache, sra := int64(ServerCacheBytes), int64(ServerReadAhead)
	switch {
	case spec.ServerCache < 0:
		scache, sra = 0, 0
	case spec.ServerCache > 0:
		scache = spec.ServerCache
	}
	pcfg := pfs.Config{
		ServerFS: fsim.Config{
			CacheBytes: scache,
			ReadAhead:  sra,
		},
		Recovery: spec.Recovery,
	}
	if spec.Faults.Enabled() {
		if !pcfg.Recovery.Enabled {
			pcfg.Recovery = DefaultRecovery()
		}
		if spec.Faults.ServerEnabled() {
			plan := spec.Faults
			pcfg.Faults = func(id int) pfs.ServerFaults { return faults.NewServerFaults(plan, id) }
		}
	}
	cluster := pfs.NewCluster(e, fabric, pcfg, devs)
	clients := make([]*pfs.Client, spec.Clients)
	for i := range clients {
		clients[i] = cluster.NewClient(fmt.Sprintf("cn%d", i))
	}
	return cluster, clients
}

// NewSharedFileEnv builds a cluster env with one file striped over all
// servers, shared by all clients.
func NewSharedFileEnv(e *sim.Engine, spec ClusterSpec, fileSize int64) (*workload.ClusterEnv, error) {
	cluster, clients := NewCluster(e, spec)
	f, err := cluster.Create("shared", fileSize, cluster.DefaultLayout())
	if err != nil {
		return nil, err
	}
	cluster.FlushCaches()
	return &workload.ClusterEnv{
		Cluster: cluster,
		Clients: clients,
		Files:   []*pfs.File{f},
		Cache:   ioreq.NewCache(spec.ClientCache),
	}, nil
}

// NewFilesEnv builds a replay-style env with one preallocated file per
// sizes entry, named prefix0, prefix1, ... — cluster specs stripe each
// file with the default layout and get one client per file
// (prefix.cn0, ...); local specs (Servers == 0) build a file system on
// dev, which must be non-nil. Both trace replay paths (offset-less
// records and ingested offset-aware logs) size their files through
// this.
func NewFilesEnv(e *sim.Engine, spec ClusterSpec, dev device.Device, prefix string, sizes []int64) (workload.Env, error) {
	if spec.Servers > 0 {
		cluster, _ := NewCluster(e, spec)
		env := &workload.ClusterEnv{Cluster: cluster, Cache: ioreq.NewCache(spec.ClientCache)}
		for i, size := range sizes {
			f, err := cluster.Create(fmt.Sprintf("%s%d", prefix, i), size, cluster.DefaultLayout())
			if err != nil {
				return nil, err
			}
			env.Files = append(env.Files, f)
			env.Clients = append(env.Clients, cluster.NewClient(fmt.Sprintf("%s.cn%d", prefix, i)))
		}
		return env, nil
	}
	fs := fsim.New(dev, fsim.Config{})
	env := &workload.LocalEnv{FS: fs}
	for i, size := range sizes {
		f, err := fs.Create(fmt.Sprintf("%s%d", prefix, i), size)
		if err != nil {
			return nil, err
		}
		env.Files = append(env.Files, f)
	}
	return env, nil
}

// NewMetaFilesEnv builds the metadata-heavy env for workload.MetaRead:
// filesPerProc small files of fileSize bytes per client process, named
// by workload.MetaFileName and striped with the default layout. Caches
// are flushed after the create storm so the measured phase starts cold,
// matching the other env constructors.
func NewMetaFilesEnv(e *sim.Engine, spec ClusterSpec, filesPerProc int, fileSize int64) (*workload.ClusterEnv, error) {
	cluster, clients := NewCluster(e, spec)
	env := &workload.ClusterEnv{Cluster: cluster, Clients: clients, Cache: ioreq.NewCache(spec.ClientCache)}
	for pid := 0; pid < spec.Clients; pid++ {
		for i := 0; i < filesPerProc; i++ {
			f, err := cluster.Create(workload.MetaFileName(pid, i), fileSize, cluster.DefaultLayout())
			if err != nil {
				return nil, err
			}
			env.Files = append(env.Files, f)
		}
	}
	cluster.FlushCaches()
	return env, nil
}

// NewPinnedFilesEnv builds the paper's "pure" concurrency setup
// (§IV.C.3): one file per client, pinned to server i mod Servers.
func NewPinnedFilesEnv(e *sim.Engine, spec ClusterSpec, filePerProc int64) (*workload.ClusterEnv, error) {
	cluster, clients := NewCluster(e, spec)
	env := &workload.ClusterEnv{Cluster: cluster, Clients: clients, Cache: ioreq.NewCache(spec.ClientCache)}
	for i := 0; i < spec.Clients; i++ {
		f, err := cluster.Create(fmt.Sprintf("own%d", i), filePerProc, cluster.PinnedLayout(i%spec.Servers))
		if err != nil {
			return nil, err
		}
		env.Files = append(env.Files, f)
	}
	cluster.FlushCaches()
	return env, nil
}
