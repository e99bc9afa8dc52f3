package experiments

import (
	"math"
	"reflect"
	"testing"

	"bps/internal/core"
)

func runSmallSuite(t *testing.T, parallel int) SuiteReport {
	t.Helper()
	rep, err := RunSuite(Params{Scale: 1.0 / 512, Seed: 42, Parallel: parallel}, 3)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	return rep
}

// TestRunSuiteShape: four phases, full sweep per phase, populated
// distributions and ceilings.
func TestRunSuiteShape(t *testing.T) {
	rep := runSmallSuite(t, 0)
	wantPhases := []string{"easy", "hard", "random", "meta"}
	if len(rep.Phases) != len(wantPhases) {
		t.Fatalf("got %d phases, want %d", len(rep.Phases), len(wantPhases))
	}
	for i, ph := range rep.Phases {
		if ph.Name != wantPhases[i] {
			t.Errorf("phase %d = %q, want %q", i, ph.Name, wantPhases[i])
		}
		if len(ph.Points) != len(suiteProcs) || len(ph.CeilingBPS) != len(suiteProcs) {
			t.Fatalf("phase %s: %d points, %d ceilings, want %d each", ph.Name, len(ph.Points), len(ph.CeilingBPS), len(suiteProcs))
		}
		for _, k := range core.Kinds {
			cc := ph.CC[k]
			if cc.N != rep.Seeds {
				t.Errorf("phase %s CC(%v): N = %d, want %d", ph.Name, k, cc.N, rep.Seeds)
			}
			if cc.CILo > cc.Mean || cc.Mean > cc.CIHi {
				t.Errorf("phase %s CC(%v): mean %v outside CI [%v, %v]", ph.Name, k, cc.Mean, cc.CILo, cc.CIHi)
			}
			if rk := ph.RankCC[k]; rk.Mean < -1 || rk.Mean > 1 {
				t.Errorf("phase %s RankCC(%v) mean %v outside [-1, 1]", ph.Name, k, rk.Mean)
			}
		}
		for i, pt := range ph.Points {
			if ph.CeilingBPS[i] <= 0 || math.IsNaN(ph.CeilingBPS[i]) {
				t.Errorf("phase %s point %s: degenerate ceiling %v", ph.Name, pt.Label, ph.CeilingBPS[i])
			}
			if pt.Headroom <= 0 || pt.Headroom > 1+1e-9 {
				t.Errorf("phase %s point %s: headroom %v outside (0, 1]: the ceiling does not bound", ph.Name, pt.Label, pt.Headroom)
			}
		}
		if ph.Headroom.N != rep.Seeds*len(suiteProcs) {
			t.Errorf("phase %s headroom N = %d, want %d", ph.Name, ph.Headroom.N, rep.Seeds*len(suiteProcs))
		}
		if ph.Headroom.Max > 1+1e-9 {
			t.Errorf("phase %s: headroom reaches %v over all seeds: the ceiling does not bound", ph.Name, ph.Headroom.Max)
		}
	}
	if rep.Composite.N != rep.Seeds || rep.Composite.Mean <= 0 {
		t.Fatalf("composite: %+v", rep.Composite)
	}
}

// TestRunSuiteParallelMatchesSequential is the suite's determinism pin:
// the full report — every point, CC distribution, bootstrap CI, and
// headroom — must be bit-identical regardless of worker count. Run
// under -race this also exercises the fan-out for data races.
func TestRunSuiteParallelMatchesSequential(t *testing.T) {
	seq := runSmallSuite(t, 1)
	par := runSmallSuite(t, 8)
	// The report echoes its Params; the worker count is the one field
	// that legitimately differs between the two runs.
	seq.Params.Parallel = 0
	par.Params.Parallel = 0
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("suite report differs between sequential and parallel runs:\n seq %+v\n par %+v", seq, par)
	}
}

// TestRunSuiteSeedFloor: fewer than two seeds cannot produce a CC
// distribution and must be refused.
func TestRunSuiteSeedFloor(t *testing.T) {
	if _, err := RunSuite(Params{Scale: 1.0 / 512}, 1); err == nil {
		t.Fatal("RunSuite accepted 1 seed")
	}
}
