package bps

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func measureAccs() []Access {
	var accs []Access
	for pid := int64(0); pid < 2; pid++ {
		for i := int64(0); i < 8; i++ {
			accs = append(accs, Access{
				PID: pid, Slot: int(pid), Off: i * 65536, Size: 65536,
			})
		}
	}
	return accs
}

// TestMeasureAccessesMem is the public-API smoke: measure an access
// stream on the in-memory backend and get a shape-identical RunReport.
func TestMeasureAccessesMem(t *testing.T) {
	rep, err := MeasureAccesses(LiveConfig{Seed: 7}, measureAccs())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Ops != 16 || rep.Errors != 0 {
		t.Fatalf("ops %d errors %d", rep.Metrics.Ops, rep.Errors)
	}
	if rep.Metrics.BPS() <= 0 {
		t.Fatalf("BPS = %v", rep.Metrics.BPS())
	}
	if len(rep.Records) != 16 {
		t.Fatalf("%d records", len(rep.Records))
	}
	if rep.Attribution == nil || len(rep.Attribution.Windows) == 0 {
		t.Fatalf("no windowed series: %+v", rep.Attribution)
	}
	if rep.Obs != nil {
		t.Fatalf("live runs must not claim an engine observer")
	}

	// Default virtual mode is deterministic through the public surface.
	rep2, err := MeasureAccesses(LiveConfig{Seed: 7}, measureAccs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Metrics, rep2.Metrics) {
		t.Fatalf("virtual MeasureAccesses not deterministic")
	}
}

// TestMeasureAccessesOS measures a real temp directory.
func TestMeasureAccessesOS(t *testing.T) {
	rep, err := MeasureAccesses(LiveConfig{Dir: t.TempDir(), Wall: true, Seed: 7}, measureAccs())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Ops != 16 || rep.Errors != 0 {
		t.Fatalf("ops %d errors %d", rep.Metrics.Ops, rep.Errors)
	}
	if rep.Metrics.MovedBytes != 16*65536 {
		t.Fatalf("moved %d bytes, want %d", rep.Metrics.MovedBytes, 16*65536)
	}
}

func TestMeasureAccessesEmpty(t *testing.T) {
	if _, err := MeasureAccesses(LiveConfig{}, nil); err == nil {
		t.Fatalf("empty stream accepted")
	}
	// A replay sizes its files from the stream, so a bad access must be
	// rejected before that, not index out of range.
	for _, bad := range []Access{{Size: 0}, {Size: 1, Off: -1}, {Size: 1, Slot: -1}} {
		if _, err := ReplayAccesses(RunConfig{}, []Access{bad}); err == nil {
			t.Errorf("replay of access %+v accepted", bad)
		}
	}
	if _, err := ReplayAccesses(RunConfig{}, nil); err == nil {
		t.Error("empty replay stream accepted")
	}
}

// TestSimLiveScheduleOracle is the B half of the sim/live twin oracle:
// one seeded stream (four PIDs over five shared slots, think gaps with
// ties, one write in four, shuffled input order) replayed on a
// simulated stack and measured on memfs in virtual mode issues the same
// accesses. N and B agree with each other and with the stream, and each
// PID issues the Blocks of its accesses in recorded start order.
func TestSimLiveScheduleOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	var accs []Access
	for pid := int64(0); pid < 4; pid++ {
		var at Time
		for i := 0; i < 24; i++ {
			at += Time(rng.Intn(3)) * Millisecond
			size := 1 + rng.Int63n(64<<10)
			accs = append(accs, Access{
				PID: 10 - 3*pid, Slot: rng.Intn(5), Write: rng.Intn(4) == 0,
				Off: rng.Int63n(1 << 20), Size: size, Start: at, End: at + Millisecond,
			})
		}
	}
	rng.Shuffle(len(accs), func(i, j int) { accs[i], accs[j] = accs[j], accs[i] })

	want := make(map[int64][]int64)
	var blocks int64
	ordered := slices.Clone(accs)
	slices.SortStableFunc(ordered, func(a, b Access) int { return cmp.Compare(a.Start, b.Start) })
	for _, a := range ordered {
		want[a.PID] = append(want[a.PID], a.Blocks())
		blocks += a.Blocks()
	}
	// issued returns each PID's Blocks in issue order: a process's
	// accesses are sequential, so its records' starts follow issue order.
	issued := func(recs []Record) map[int64][]int64 {
		recs = slices.Clone(recs)
		slices.SortStableFunc(recs, func(a, b Record) int { return cmp.Compare(a.Start, b.Start) })
		got := make(map[int64][]int64)
		for _, r := range recs {
			got[r.PID] = append(got[r.PID], r.Blocks)
		}
		return got
	}

	simRep, err := ReplayAccesses(RunConfig{Storage: Storage{Media: SSD}, Seed: 3}, accs)
	if err != nil {
		t.Fatal(err)
	}
	liveRep, err := MeasureAccesses(LiveConfig{Seed: 3}, accs)
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]RunReport{"sim": simRep, "live": liveRep} {
		if rep.Errors != 0 {
			t.Errorf("%s: %d errors", name, rep.Errors)
		}
		if rep.Metrics.Ops != int64(len(accs)) || rep.Metrics.Blocks != blocks {
			t.Errorf("%s: N = %d, B = %d; the stream has N = %d, B = %d",
				name, rep.Metrics.Ops, rep.Metrics.Blocks, len(accs), blocks)
		}
		if got := issued(rep.Records); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-PID Blocks in issue order = %v, want %v", name, got, want)
		}
	}
}
