package pfs

import (
	"testing"
	"testing/quick"

	"bps/internal/device"
	"bps/internal/netsim"
	"bps/internal/sim"
)

// newTestCluster builds a cluster of n RAM-disk servers on a fast fabric.
func newTestCluster(e *sim.Engine, n int) *Cluster {
	fabric := netsim.NewFabric(e, netsim.DefaultGigabit())
	devs := make([]device.Device, n)
	for i := range devs {
		devs[i] = device.NewRAMDisk(e, "ram", 16<<30, 10*sim.Microsecond, 500e6)
	}
	return NewCluster(e, fabric, Config{}, devs)
}

func TestLocalSizeFor(t *testing.T) {
	const ss = 100
	cases := []struct {
		size int64
		n    int
		want []int64
	}{
		{size: 400, n: 4, want: []int64{100, 100, 100, 100}},
		{size: 450, n: 4, want: []int64{150, 100, 100, 100}},
		{size: 50, n: 4, want: []int64{50, 0, 0, 0}},
		{size: 1000, n: 3, want: []int64{400, 300, 300}},
		{size: 1050, n: 3, want: []int64{400, 350, 300}},
		{size: 1, n: 1, want: []int64{1}},
	}
	for _, c := range cases {
		for pos, want := range c.want {
			if got := localSizeFor(c.size, ss, c.n, pos); got != want {
				t.Errorf("localSizeFor(size=%d, n=%d, pos=%d) = %d, want %d",
					c.size, c.n, pos, got, want)
			}
		}
	}
}

// Property: local sizes sum to the file size for any (size, stripe, n).
func TestLocalSizesSumProperty(t *testing.T) {
	prop := func(size uint32, stripeExp, n uint8) bool {
		sz := int64(size%1_000_000) + 1
		ss := int64(1) << (stripeExp%8 + 6) // 64..8192
		nn := int(n%8) + 1
		var sum int64
		for pos := 0; pos < nn; pos++ {
			sum += localSizeFor(sz, ss, nn, pos)
		}
		return sum == sz
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: chunksFor covers [off, off+size) exactly, in order, and every
// chunk stays within its server's local file size.
func TestChunksCoverProperty(t *testing.T) {
	prop := func(off, size uint32, n uint8) bool {
		nn := int(n%8) + 1
		const ss = 64 << 10
		const fileSize = 4 << 20
		o := int64(off) % fileSize
		s := int64(size)%(fileSize-o) + 1
		f := &File{
			size:   fileSize,
			layout: Layout{StripeSize: ss, Servers: make([]int, nn)},
		}
		chunks := f.chunksFor(nil, o, s)
		var covered int64
		for _, ch := range chunks {
			if ch.size <= 0 || ch.pos < 0 || ch.pos >= nn {
				return false
			}
			end := ch.localOff + ch.size
			if end > localSizeFor(fileSize, ss, nn, ch.pos) {
				return false
			}
			covered += ch.size
		}
		return covered == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChunksMergeSingleServer(t *testing.T) {
	f := &File{size: 1 << 20, layout: Layout{StripeSize: 64 << 10, Servers: []int{0}}}
	chunks := f.chunksFor(nil, 0, 1<<20)
	if len(chunks) != 1 {
		t.Fatalf("single-server read split into %d chunks, want 1", len(chunks))
	}
	if chunks[0].localOff != 0 || chunks[0].size != 1<<20 {
		t.Fatalf("chunk = %+v", chunks[0])
	}
}

func TestCreateValidation(t *testing.T) {
	e := sim.NewEngine(1)
	c := newTestCluster(e, 2)
	if _, err := c.Create("f", 0, c.DefaultLayout()); err == nil {
		t.Error("zero-size create succeeded")
	}
	if _, err := c.Create("f", 1024, Layout{Servers: []int{5}}); err == nil {
		t.Error("create with unknown server succeeded")
	}
	if _, err := c.Create("f", 1024, Layout{}); err == nil {
		t.Error("create with empty layout succeeded")
	}
	if _, err := c.Create("f", 1024, c.DefaultLayout()); err != nil {
		t.Error(err)
	}
	if _, err := c.Create("f", 1024, c.DefaultLayout()); err == nil {
		t.Error("duplicate create succeeded")
	}
	if _, err := c.Open("f"); err != nil {
		t.Error(err)
	}
	if _, err := c.Open("g"); err == nil {
		t.Error("open missing succeeded")
	}
}

func TestReadMovesDataAndCompletes(t *testing.T) {
	e := sim.NewEngine(1)
	c := newTestCluster(e, 4)
	cl := c.NewClient("client0")
	var readErr error
	e.Spawn("app", func(p *sim.Proc) {
		f, err := c.Create("data", 8<<20, c.DefaultLayout())
		if err != nil {
			t.Error(err)
			return
		}
		readErr = cl.Read(p, f, 0, 8<<20)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	if c.Moved() != 8<<20 {
		t.Fatalf("Moved = %d, want %d", c.Moved(), 8<<20)
	}
	// Every server participated (8 MiB over 4 servers, 64 KiB stripes).
	for _, s := range c.Servers() {
		if s.FS().Moved() != 2<<20 {
			t.Fatalf("server %d moved %d, want %d", s.ID(), s.FS().Moved(), 2<<20)
		}
	}
	if cl.NIC().Received() < 8<<20 {
		t.Fatalf("client received %d bytes", cl.NIC().Received())
	}
}

func TestWritePath(t *testing.T) {
	e := sim.NewEngine(1)
	c := newTestCluster(e, 2)
	cl := c.NewClient("client0")
	e.Spawn("app", func(p *sim.Proc) {
		f, err := c.Create("data", 1<<20, c.DefaultLayout())
		if err != nil {
			t.Error(err)
			return
		}
		if err := cl.Write(p, f, 0, 1<<20); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var written int64
	for _, s := range c.Servers() {
		written += s.FS().Device().Stats().BytesWritten
	}
	if written != 1<<20 {
		t.Fatalf("devices wrote %d, want %d", written, 1<<20)
	}
}

func TestReadBounds(t *testing.T) {
	e := sim.NewEngine(1)
	c := newTestCluster(e, 2)
	cl := c.NewClient("client0")
	e.Spawn("app", func(p *sim.Proc) {
		f, _ := c.Create("data", 4096, c.DefaultLayout())
		if err := cl.Read(p, f, 0, 8192); err == nil {
			t.Error("out-of-bounds read succeeded")
		}
		if err := cl.Read(p, f, 0, 0); err == nil {
			t.Error("zero-size read succeeded")
		}
		if err := cl.Read(p, f, -4, 8); err == nil {
			t.Error("negative-offset read succeeded")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedLayoutIsolatesServers(t *testing.T) {
	e := sim.NewEngine(1)
	c := newTestCluster(e, 4)
	for i := 0; i < 4; i++ {
		i := i
		cl := c.NewClient("client")
		e.Spawn("app", func(p *sim.Proc) {
			f, err := c.Create(fileName(i), 1<<20, c.PinnedLayout(i))
			if err != nil {
				t.Error(err)
				return
			}
			if err := cl.Read(p, f, 0, 1<<20); err != nil {
				t.Error(err)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Servers() {
		if s.FS().Moved() != 1<<20 {
			t.Fatalf("server %d moved %d, want exactly its own file", s.ID(), s.FS().Moved())
		}
	}
}

func fileName(i int) string {
	return "file" + string(rune('0'+i))
}

func TestMoreServersFaster(t *testing.T) {
	run := func(nservers int) sim.Time {
		e := sim.NewEngine(1)
		fabric := netsim.NewFabric(e, netsim.DefaultGigabit())
		devs := make([]device.Device, nservers)
		for i := range devs {
			// Slow disks so the device, not the network, dominates.
			devs[i] = device.NewRAMDisk(e, "disk", 16<<30, 100*sim.Microsecond, 50e6)
		}
		c := NewCluster(e, fabric, Config{}, devs)
		cl := c.NewClient("client0")
		e.Spawn("app", func(p *sim.Proc) {
			f, err := c.Create("data", 64<<20, c.DefaultLayout())
			if err != nil {
				t.Error(err)
				return
			}
			for off := int64(0); off < 64<<20; off += 4 << 20 {
				if err := cl.Read(p, f, off, 4<<20); err != nil {
					t.Error(err)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	one, four := run(1), run(4)
	if four*2 > one {
		t.Fatalf("4 servers (%v) not meaningfully faster than 1 (%v)", four, one)
	}
}

func TestPFSDeterminism(t *testing.T) {
	run := func() sim.Time {
		e := sim.NewEngine(3)
		c := newTestCluster(e, 3)
		for i := 0; i < 3; i++ {
			cl := c.NewClient("client")
			name := fileName(i)
			e.Spawn("app", func(p *sim.Proc) {
				f, err := c.Create(name, 2<<20, c.DefaultLayout())
				if err != nil {
					t.Error(err)
					return
				}
				for off := int64(0); off < 2<<20; off += 64 << 10 {
					if err := cl.Read(p, f, off, 64<<10); err != nil {
						t.Error(err)
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic PFS run: %v vs %v", a, b)
	}
}

func TestClientOpenPaysMetadataCost(t *testing.T) {
	e := sim.NewEngine(1)
	c := newTestCluster(e, 2)
	if _, err := c.Create("data", 1<<20, c.DefaultLayout()); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient("client0")
	var openTime sim.Time
	e.Spawn("app", func(p *sim.Proc) {
		t0 := p.Now()
		f, err := cl.Open(p, "data")
		if err != nil {
			t.Error(err)
			return
		}
		openTime = p.Now() - t0
		if err := cl.Read(p, f, 0, 64<<10); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// At least the 200µs MDS service plus two network hops.
	if openTime < 200*sim.Microsecond {
		t.Fatalf("open took %v, metadata cost missing", openTime)
	}
	if c.MetadataOps() != 1 {
		t.Fatalf("metadata ops = %d", c.MetadataOps())
	}
}

func TestClientOpenMissingFile(t *testing.T) {
	e := sim.NewEngine(1)
	c := newTestCluster(e, 1)
	cl := c.NewClient("client0")
	e.Spawn("app", func(p *sim.Proc) {
		if _, err := cl.Open(p, "nope"); err == nil {
			t.Error("open of missing file succeeded")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Failed lookups still hit the MDS.
	if c.MetadataOps() != 1 {
		t.Fatalf("metadata ops = %d", c.MetadataOps())
	}
}

func TestMetadataServerSerializesLookups(t *testing.T) {
	e := sim.NewEngine(1)
	c := newTestCluster(e, 1)
	if _, err := c.Create("data", 1<<20, c.DefaultLayout()); err != nil {
		t.Fatal(err)
	}
	const lookers = 8
	var last sim.Time
	for i := 0; i < lookers; i++ {
		cl := c.NewClient("client")
		e.Spawn("app", func(p *sim.Proc) {
			if _, err := cl.Open(p, "data"); err != nil {
				t.Error(err)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Eight concurrent lookups serialize on the MDS: ≥ 8×200µs.
	if last < lookers*200*sim.Microsecond {
		t.Fatalf("8 lookups finished in %v, MDS not serializing", last)
	}
	if c.MetadataOps() != lookers {
		t.Fatalf("metadata ops = %d", c.MetadataOps())
	}
}

func TestConcurrentReadersAndWritersOnSharedFile(t *testing.T) {
	e := sim.NewEngine(1)
	c := newTestCluster(e, 4)
	f, err := c.Create("mixed", 8<<20, c.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rd := c.NewClient("reader")
		e.Spawn("reader", func(p *sim.Proc) {
			for off := int64(0); off < 4<<20; off += 256 << 10 {
				if err := rd.Read(p, f, off, 256<<10); err != nil {
					t.Error(err)
				}
			}
		})
		wr := c.NewClient("writer")
		e.Spawn("writer", func(p *sim.Proc) {
			for off := int64(4 << 20); off < 8<<20; off += 256 << 10 {
				if err := wr.Write(p, f, off, 256<<10); err != nil {
					t.Error(err)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var read, written int64
	for _, s := range c.Servers() {
		read += s.FS().Device().Stats().BytesRead
		written += s.FS().Device().Stats().BytesWritten
	}
	if read != 8<<20 || written != 8<<20 {
		t.Fatalf("read=%d written=%d, want 8 MiB each", read, written)
	}
}

// TestProcsShareOneClient runs overlapping striped reads from several
// procs through one client. Each access holds its own fan-out list
// across parks, so every read completes and each server moves exactly
// its stripe share.
func TestProcsShareOneClient(t *testing.T) {
	e := sim.NewEngine(1)
	c := newTestCluster(e, 4)
	cl := c.NewClient("shared")
	f, err := c.Create("data", 6<<20, c.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := int64(0); i < 3; i++ {
		base := i * 2 << 20
		e.Spawn("reader", func(p *sim.Proc) {
			for off := base; off < base+2<<20; off += 512 << 10 {
				if err := cl.Read(p, f, off, 512<<10); err != nil {
					t.Error(err)
				}
			}
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Fatalf("%d of 3 readers finished", done)
	}
	for _, s := range c.Servers() {
		if got := s.FS().Moved(); got != 6<<20/4 {
			t.Errorf("server %d moved %d, want %d", s.ID(), got, 6<<20/4)
		}
	}
}

func TestStripeSizeOverrideInLayout(t *testing.T) {
	e := sim.NewEngine(1)
	c := newTestCluster(e, 2)
	layout := Layout{StripeSize: 128 << 10, Servers: []int{0, 1}}
	f, err := c.Create("big-stripe", 1<<20, layout)
	if err != nil {
		t.Fatal(err)
	}
	chunks := f.chunksFor(nil, 0, 256<<10)
	if len(chunks) != 2 || chunks[0].size != 128<<10 {
		t.Fatalf("chunks = %+v, want two 128 KiB stripes", chunks)
	}
	if f.Layout().StripeSize != 128<<10 {
		t.Fatalf("layout = %+v", f.Layout())
	}
}

func TestServerQueueDrainsUnderBurst(t *testing.T) {
	// Many clients slam one pinned server; every request completes and
	// the server queue returns to empty.
	e := sim.NewEngine(1)
	c := newTestCluster(e, 1)
	f, err := c.Create("hot", 4<<20, c.PinnedLayout(0))
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 16; i++ {
		cl := c.NewClient("burst")
		e.Spawn("burst", func(p *sim.Proc) {
			if err := cl.Read(p, f, 0, 64<<10); err != nil {
				t.Error(err)
			}
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 16 {
		t.Fatalf("done = %d", done)
	}
}
