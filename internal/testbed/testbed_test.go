package testbed

import (
	"fmt"
	"testing"

	"bps/internal/sim"
	"bps/internal/workload"
)

func TestMediaString(t *testing.T) {
	if HDD.String() != "hdd" || SSD.String() != "ssd" {
		t.Fatalf("media strings: %s %s", HDD, SSD)
	}
}

func TestNewDeviceKinds(t *testing.T) {
	e := sim.NewEngine(1)
	for media, want := range map[Media]string{HDD: "*device.HDD", SSD: "*device.SSD"} {
		if got := fmt.Sprintf("%T", NewDevice(e, media)); got != want {
			t.Fatalf("%s device is %s, want %s", media, got, want)
		}
	}
}

func TestNewLocalEnv(t *testing.T) {
	e := sim.NewEngine(1)
	env, err := NewLocalEnv(e, SSD, 3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Files) != 3 {
		t.Fatalf("files = %d", len(env.Files))
	}
	// Each pid maps to its own file.
	if env.Target(0).File() == env.Target(1).File() {
		t.Fatal("pids share a file in own-file mode")
	}
}

func TestClusterEnvsRun(t *testing.T) {
	w := workload.SeqRead{Label: "t", Processes: 2, BytesPerProcess: 256 << 10, RecordSize: 64 << 10}

	e1 := sim.NewEngine(1)
	shared, err := NewSharedFileEnv(e1, ClusterSpec{Servers: 2, Media: HDD, Clients: 2}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ws := w
	ws.StartOffset = func(pid int) int64 { return int64(pid) * (256 << 10) }
	if res, err := ws.Run(e1, shared); err != nil || res.Errors != 0 {
		t.Fatalf("shared run: %v, errors %d", err, res.Errors)
	}

	e2 := sim.NewEngine(1)
	pinned, err := NewPinnedFilesEnv(e2, ClusterSpec{Servers: 2, Media: HDD, Clients: 2}, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := w.Run(e2, pinned); err != nil || res.Errors != 0 {
		t.Fatalf("pinned run: %v, errors %d", err, res.Errors)
	}
}

func TestPinnedWrapsAroundServers(t *testing.T) {
	e := sim.NewEngine(1)
	env, err := NewPinnedFilesEnv(e, ClusterSpec{Servers: 2, Media: HDD, Clients: 4}, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Files) != 4 {
		t.Fatalf("files = %d", len(env.Files))
	}
}
