package experiments

import (
	"math"
	"strings"
	"testing"

	"bps/internal/core"
	"bps/internal/stats"
)

// testParams runs the suite at 1/256 of the paper's data volume: every
// qualitative claim below was verified stable across seeds at this scale.
func testParams() Params { return Params{Scale: 1.0 / 256, Seed: 42} }

// sharedSuite memoizes sweeps across the whole test package; individual
// tests read figures only, so sharing is safe (tests here do not run in
// parallel).
var sharedSuite = NewSuite(testParams())

func testSuite(t *testing.T) *Suite {
	t.Helper()
	return sharedSuite
}

func ccOf(t *testing.T, f Figure, k core.MetricKind) float64 {
	t.Helper()
	if f.CC == nil {
		t.Fatalf("%s has no CC table", f.ID)
	}
	cc := f.CC.CC[k]
	if math.IsNaN(cc) {
		t.Fatalf("%s: CC(%v) is NaN", f.ID, k)
	}
	return cc
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Scale != 1.0/64 || p.Seed != 42 {
		t.Fatalf("defaults = %+v", p)
	}
	if v := (Params{Scale: 1}).scaled(1000, 64); v != 1024 {
		t.Fatalf("scaled rounding = %d, want 1024", v)
	}
	if v := (Params{Scale: 1e-9}).scaled(1000, 64); v != 64 {
		t.Fatalf("scaled floor = %d, want one unit", v)
	}
}

func TestUnknownFigure(t *testing.T) {
	if _, err := testSuite(t).Figure("fig99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestFig4AllMetricsCorrect pins the paper's §IV.C.1 claim: when only the
// storage device changes, all four metrics correlate in the expected
// direction with strong magnitude.
func TestFig4AllMetricsCorrect(t *testing.T) {
	f, err := testSuite(t).Figure("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 6 {
		t.Fatalf("fig4 has %d points, want 6", len(f.Points))
	}
	for _, k := range core.Kinds {
		if cc := ccOf(t, f, k); cc < 0.5 {
			t.Errorf("fig4: CC(%v) = %+.2f, want strongly correct (paper ≈ 0.93)", k, cc)
		}
	}
	// More PVFS servers must not be slower.
	var prev float64 = math.Inf(1)
	for _, pt := range f.Points[2:] {
		exec := pt.Metrics.ExecTime.Seconds()
		if exec > prev*1.05 {
			t.Errorf("fig4: exec time grew with more servers: %s = %.3fs after %.3fs", pt.Label, exec, prev)
		}
		prev = exec
	}
}

// TestFig5IOPSAndARPTMislead pins §IV.C.2 on HDD: IOPS and ARPT point the
// wrong way, BW and BPS the right way.
func TestFig5IOPSAndARPTMislead(t *testing.T) {
	f, err := testSuite(t).Figure("fig5")
	if err != nil {
		t.Fatal(err)
	}
	if cc := ccOf(t, f, core.IOPS); cc > -0.5 {
		t.Errorf("fig5: CC(IOPS) = %+.2f, want strongly wrong direction", cc)
	}
	if cc := ccOf(t, f, core.ARPT); cc >= 0 {
		t.Errorf("fig5: CC(ARPT) = %+.2f, want wrong direction", cc)
	}
	if cc := ccOf(t, f, core.BW); cc < 0.8 {
		t.Errorf("fig5: CC(BW) = %+.2f, want strongly correct (paper ≈ 0.90)", cc)
	}
	if cc := ccOf(t, f, core.BPS); cc < 0.8 {
		t.Errorf("fig5: CC(BPS) = %+.2f, want strongly correct (paper ≈ 0.90)", cc)
	}
}

// TestFig6SSDSameStory pins the same claims for the SSD environment.
func TestFig6SSDSameStory(t *testing.T) {
	f, err := testSuite(t).Figure("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if cc := ccOf(t, f, core.IOPS); cc >= 0 {
		t.Errorf("fig6: CC(IOPS) = %+.2f, want wrong direction", cc)
	}
	if cc := ccOf(t, f, core.ARPT); cc >= 0 {
		t.Errorf("fig6: CC(ARPT) = %+.2f, want wrong direction", cc)
	}
	if cc := ccOf(t, f, core.BW); cc < 0.6 {
		t.Errorf("fig6: CC(BW) = %+.2f, want correct", cc)
	}
	if cc := ccOf(t, f, core.BPS); cc < 0.6 {
		t.Errorf("fig6: CC(BPS) = %+.2f, want correct", cc)
	}
}

// TestFig7Detail pins the Fig. 7 inversion: from 4 KB to 64 KB records,
// IOPS falls by more than 3× while execution time also falls — the
// "higher IOPS, slower application" mismatch.
func TestFig7Detail(t *testing.T) {
	f, err := testSuite(t).Figure("fig7")
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsDetail || f.DetailKind != core.IOPS {
		t.Fatalf("fig7 should be an IOPS detail figure: %+v", f)
	}
	at := indexPoints(f)
	small, big := at["4KB"], at["64KB"]
	if small.Metrics.IOPS() < 3*big.Metrics.IOPS() {
		t.Errorf("fig7: IOPS 4KB=%.0f vs 64KB=%.0f, want ≳3× drop (paper 5156→732)",
			small.Metrics.IOPS(), big.Metrics.IOPS())
	}
	if small.Metrics.ExecTime <= big.Metrics.ExecTime {
		t.Errorf("fig7: exec time must fall with record size: 4KB=%v 64KB=%v",
			small.Metrics.ExecTime, big.Metrics.ExecTime)
	}
}

// TestFig8Detail pins the Fig. 8 inversion on SSD: ARPT rises by orders
// of magnitude from 4 KB to 4 MB while execution time falls.
func TestFig8Detail(t *testing.T) {
	f, err := testSuite(t).Figure("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsDetail || f.DetailKind != core.ARPT {
		t.Fatalf("fig8 should be an ARPT detail figure: %+v", f)
	}
	at := indexPoints(f)
	small, big := at["4KB"], at["4MB"]
	if big.Metrics.ARPT() < 10*small.Metrics.ARPT() {
		t.Errorf("fig8: ARPT 4KB=%.5f vs 4MB=%.5f, want ≫ rise (paper 0.00014→0.02235)",
			small.Metrics.ARPT(), big.Metrics.ARPT())
	}
	if big.Metrics.ExecTime >= small.Metrics.ExecTime {
		t.Errorf("fig8: exec time must fall: 4KB=%v 4MB=%v", small.Metrics.ExecTime, big.Metrics.ExecTime)
	}
}

// TestFig9ConcurrencyPure pins §IV.C.3 (pure concurrency): IOPS, BW, BPS
// correct and strong; ARPT wrong direction with modest magnitude.
func TestFig9ConcurrencyPure(t *testing.T) {
	f, err := testSuite(t).Figure("fig9")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []core.MetricKind{core.IOPS, core.BW, core.BPS} {
		if cc := ccOf(t, f, k); cc < 0.7 {
			t.Errorf("fig9: CC(%v) = %+.2f, want strongly correct (paper ≈ 0.96)", k, cc)
		}
	}
	if cc := ccOf(t, f, core.ARPT); cc >= 0 {
		t.Errorf("fig9: CC(ARPT) = %+.2f, want wrong direction (paper ≈ -0.58)", cc)
	}
	// Execution time must fall monotonically with concurrency here.
	for i := 1; i < len(f.Points); i++ {
		if f.Points[i].Metrics.ExecTime >= f.Points[i-1].Metrics.ExecTime {
			t.Errorf("fig9: exec time not decreasing at %s", f.Points[i].Label)
		}
	}
}

// TestFig10Detail pins the Fig. 10 shape: ARPT varies far less than
// execution time (relatively) and does not fall with concurrency.
func TestFig10Detail(t *testing.T) {
	f, err := testSuite(t).Figure("fig10")
	if err != nil {
		t.Fatal(err)
	}
	first, last := f.Points[0].Metrics, f.Points[len(f.Points)-1].Metrics
	execRatio := first.ExecTime.Seconds() / last.ExecTime.Seconds()
	arptRatio := last.ARPT() / first.ARPT()
	if arptRatio < 1 {
		t.Errorf("fig10: ARPT fell with concurrency (%.4f→%.4f)", first.ARPT(), last.ARPT())
	}
	if execRatio < 2 {
		t.Errorf("fig10: exec time barely moved (ratio %.2f), sweep is degenerate", execRatio)
	}
	if arptRatio > execRatio/2 {
		t.Errorf("fig10: ARPT variation (%.2fx) should be much smaller than exec variation (%.2fx)",
			arptRatio, execRatio)
	}
}

// TestFig11IORSharedFile pins the general-HPC concurrency claims.
func TestFig11IORSharedFile(t *testing.T) {
	f, err := testSuite(t).Figure("fig11")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []core.MetricKind{core.IOPS, core.BW, core.BPS} {
		if cc := ccOf(t, f, k); cc < 0.7 {
			t.Errorf("fig11: CC(%v) = %+.2f, want strongly correct (paper ≈ 0.91)", k, cc)
		}
	}
	if cc := ccOf(t, f, core.ARPT); cc >= 0 {
		t.Errorf("fig11: CC(ARPT) = %+.2f, want wrong direction (paper ≈ -0.39)", cc)
	}
	// ARPT itself must grow under contention (32p ≫ 1p).
	at := indexPoints(f)
	if at["32p"].Metrics.ARPT() < 2*at["1p"].Metrics.ARPT() {
		t.Errorf("fig11: ARPT at 32p (%.4f) should far exceed 1p (%.4f)",
			at["32p"].Metrics.ARPT(), at["1p"].Metrics.ARPT())
	}
}

// TestFig12DataSieving pins §IV.C.4: BW is the only wrong-direction
// metric once data sieving moves hole data the application never asked
// for.
func TestFig12DataSieving(t *testing.T) {
	f, err := testSuite(t).Figure("fig12")
	if err != nil {
		t.Fatal(err)
	}
	if cc := ccOf(t, f, core.BW); cc >= 0 {
		t.Errorf("fig12: CC(BW) = %+.2f, want wrong direction", cc)
	}
	for _, k := range []core.MetricKind{core.IOPS, core.ARPT, core.BPS} {
		if cc := ccOf(t, f, k); cc < 0.7 {
			t.Errorf("fig12: CC(%v) = %+.2f, want correct (paper ≈ 0.92)", k, cc)
		}
	}
	// Moved bytes grow with spacing while required bytes stay fixed.
	first, last := f.Points[0].Metrics, f.Points[len(f.Points)-1].Metrics
	if first.Blocks != last.Blocks {
		t.Errorf("fig12: required blocks changed across sweep: %d vs %d", first.Blocks, last.Blocks)
	}
	if last.MovedBytes < 4*first.MovedBytes {
		t.Errorf("fig12: moved bytes should grow strongly with spacing: %d → %d",
			first.MovedBytes, last.MovedBytes)
	}
}

// TestBPSCorrectEverywhere pins the paper's headline (§IV.C.5): BPS is
// the only metric with the expected correlation direction in every
// experiment.
func TestBPSCorrectEverywhere(t *testing.T) {
	s := testSuite(t)
	wrongSomewhere := map[core.MetricKind]bool{}
	for _, id := range []string{"fig4", "fig5", "fig6", "fig9", "fig11", "fig12"} {
		f, err := s.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range core.Kinds {
			if ccOf(t, f, k) <= 0 {
				wrongSomewhere[k] = true
			}
		}
	}
	if wrongSomewhere[core.BPS] {
		t.Error("BPS had a wrong correlation direction in some experiment")
	}
	for _, k := range []core.MetricKind{core.IOPS, core.BW, core.ARPT} {
		if !wrongSomewhere[k] {
			t.Errorf("%v was never misleading; the comparison has lost its point", k)
		}
	}
}

// TestNoRunErrors verifies no workload access failed in any experiment.
func TestNoRunErrors(t *testing.T) {
	s := testSuite(t)
	for _, id := range FigureIDs {
		f, err := s.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range f.Points {
			if pt.Errors != 0 {
				t.Errorf("%s %s: %d failed accesses", f.ID, pt.Label, pt.Errors)
			}
			if pt.Metrics.Ops == 0 || pt.Metrics.IOTime <= 0 {
				t.Errorf("%s %s: degenerate run %+v", f.ID, pt.Label, pt.Metrics)
			}
			// I/O time can never exceed execution time.
			if pt.Metrics.IOTime > pt.Metrics.ExecTime {
				t.Errorf("%s %s: IOTime %v > ExecTime %v", f.ID, pt.Label,
					pt.Metrics.IOTime, pt.Metrics.ExecTime)
			}
		}
	}
}

// TestSuiteMemoization verifies detail figures reuse their CC figure's
// sweep rather than re-running it.
func TestSuiteMemoization(t *testing.T) {
	s := testSuite(t)
	f5, err := s.Figure("fig5")
	if err != nil {
		t.Fatal(err)
	}
	f7, err := s.Figure("fig7")
	if err != nil {
		t.Fatal(err)
	}
	for i := range f5.Points {
		if f5.Points[i].Metrics != f7.Points[i].Metrics {
			t.Fatal("fig7 did not reuse fig5's sweep")
		}
	}
}

// TestDeterministicSuite verifies the whole evaluation is reproducible.
func TestDeterministicSuite(t *testing.T) {
	f1, err := NewSuite(testParams()).Figure("fig9")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewSuite(testParams()).Figure("fig9")
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1.Points {
		if f1.Points[i].Metrics != f2.Points[i].Metrics {
			t.Fatalf("fig9 point %d differs across identical suites", i)
		}
	}
}

func indexPoints(f Figure) map[string]Point {
	m := make(map[string]Point, len(f.Points))
	for _, pt := range f.Points {
		m[pt.Label] = pt
	}
	return m
}

// TestExt1Prefetching pins the extension experiment: prefetching is the
// other source of extra data movement the paper names (§I); BW must
// mislead while IOPS/ARPT/BPS stay correct.
func TestExt1Prefetching(t *testing.T) {
	f, err := testSuite(t).Figure("ext1")
	if err != nil {
		t.Fatal(err)
	}
	if cc := ccOf(t, f, core.BW); cc >= 0 {
		t.Errorf("ext1: CC(BW) = %+.2f, want wrong direction", cc)
	}
	for _, k := range []core.MetricKind{core.IOPS, core.ARPT, core.BPS} {
		if cc := ccOf(t, f, k); cc < 0.7 {
			t.Errorf("ext1: CC(%v) = %+.2f, want correct", k, cc)
		}
	}
	// Larger windows move more and run slower; required stays fixed.
	first, last := f.Points[0].Metrics, f.Points[len(f.Points)-1].Metrics
	if first.Blocks != last.Blocks {
		t.Errorf("ext1: required blocks changed: %d vs %d", first.Blocks, last.Blocks)
	}
	if last.MovedBytes <= first.MovedBytes || last.ExecTime <= first.ExecTime {
		t.Errorf("ext1: expected more movement and slower runs with bigger windows")
	}
}

// TestExt2WriteSweep pins the write-path extension: under FTL write
// amplification and GC stalls, the paper's size-sweep inversions carry
// over to writes.
func TestExt2WriteSweep(t *testing.T) {
	f, err := testSuite(t).Figure("ext2")
	if err != nil {
		t.Fatal(err)
	}
	if cc := ccOf(t, f, core.IOPS); cc >= 0 {
		t.Errorf("ext2: CC(IOPS) = %+.2f, want wrong direction", cc)
	}
	if cc := ccOf(t, f, core.ARPT); cc >= 0 {
		t.Errorf("ext2: CC(ARPT) = %+.2f, want wrong direction", cc)
	}
	if cc := ccOf(t, f, core.BW); cc < 0.6 {
		t.Errorf("ext2: CC(BW) = %+.2f, want correct", cc)
	}
	if cc := ccOf(t, f, core.BPS); cc < 0.6 {
		t.Errorf("ext2: CC(BPS) = %+.2f, want correct", cc)
	}
}

// TestRobustnessFig5 verifies the headline Fig. 5 conclusions hold over
// several independent seeds: BW/BPS stay positive, IOPS/ARPT stay
// negative, with no sign flips.
func TestRobustnessFig5(t *testing.T) {
	r, err := RunRobustness(Params{Scale: 1.0 / 512, Seed: 42}, "fig5", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range core.Kinds {
		if !r.SignStable[k] {
			t.Errorf("fig5 CC(%v) flips sign across seeds: [%+.2f, %+.2f]", k, r.Min[k], r.Max[k])
		}
	}
	if r.Mean[core.BPS] < 0.8 || r.Mean[core.IOPS] > -0.8 {
		t.Errorf("fig5 means: BPS %+.2f, IOPS %+.2f", r.Mean[core.BPS], r.Mean[core.IOPS])
	}
	if !strings.Contains(r.String(), "STABLE") {
		t.Errorf("String: %s", r.String())
	}
}

// TestRobustnessFig12BWStaysMisleading pins the most delicate result:
// the BW inversion in the data-sieving experiment holds across seeds.
func TestRobustnessFig12BWStaysMisleading(t *testing.T) {
	r, err := RunRobustness(Params{Scale: 1.0 / 512, Seed: 42}, "fig12", 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Max[core.BW] >= 0 {
		t.Errorf("fig12 CC(BW) reached %+.2f; the inversion is seed-sensitive", r.Max[core.BW])
	}
	if r.Min[core.BPS] <= 0 {
		t.Errorf("fig12 CC(BPS) reached %+.2f", r.Min[core.BPS])
	}
}

func TestRobustnessValidation(t *testing.T) {
	if _, err := RunRobustness(testParams(), "fig5", 1); err == nil {
		t.Error("nseeds=1 accepted")
	}
	if _, err := RunRobustness(testParams(), "fig7", 2); err == nil {
		t.Error("detail figure accepted")
	}
	if _, err := RunRobustness(testParams(), "nope", 2); err == nil {
		t.Error("unknown figure accepted")
	}
}

// TestCompareAgainstPaper pins the whole reproduction: every CC figure's
// measured directions agree with the paper's reported outcome.
func TestCompareAgainstPaper(t *testing.T) {
	s := testSuite(t)
	for id := range PaperResults {
		f, err := s.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		a, ok := Compare(f)
		if !ok {
			t.Fatalf("%s: no paper comparison available", id)
		}
		if len(a.SignMatches) == 0 {
			t.Errorf("%s: no metric compared against the paper", id)
		}
		for k, ok := range a.SignMatches {
			if !ok {
				t.Errorf("%s: %v direction mismatch vs paper: %+v", id, k, a.SignMatches)
			}
		}
	}
	// Detail figures and extensions have no paper CC entry.
	f7, err := s.Figure("fig7")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Compare(f7); ok {
		t.Error("detail figure compared against paper CC")
	}
}

// TestExt3AccessMethods pins the optimization-comparison extension:
// collective I/O is the fastest way to service the interleaved pattern
// and BPS ranks the three methods by application speed, while BW rates
// per-process sieving highest even though it is the slowest — redundant
// re-reads masquerading as throughput.
func TestExt3AccessMethods(t *testing.T) {
	f, err := testSuite(t).Figure("ext3")
	if err != nil {
		t.Fatal(err)
	}
	at := indexPoints(f)
	direct, sieving, collective := at["direct"], at["sieving"], at["collective"]
	if collective.Metrics.ExecTime >= direct.Metrics.ExecTime ||
		collective.Metrics.ExecTime >= sieving.Metrics.ExecTime {
		t.Errorf("collective (%v) should beat direct (%v) and sieving (%v)",
			collective.Metrics.ExecTime, direct.Metrics.ExecTime, sieving.Metrics.ExecTime)
	}
	// BW crowns the slowest method.
	if sieving.Metrics.ExecTime <= direct.Metrics.ExecTime {
		t.Skip("geometry no longer makes sieving slow; revisit the scenario")
	}
	if sieving.Metrics.Bandwidth() <= direct.Metrics.Bandwidth() {
		t.Errorf("BW should rate sieving above direct despite it being slower: %v vs %v",
			sieving.Metrics.Bandwidth(), direct.Metrics.Bandwidth())
	}
	// BPS ranks all three correctly (fastest method = highest BPS).
	if !(collective.Metrics.BPS() > direct.Metrics.BPS() && direct.Metrics.BPS() > sieving.Metrics.BPS()) {
		t.Errorf("BPS ranking wrong: coll=%v direct=%v sieve=%v",
			collective.Metrics.BPS(), direct.Metrics.BPS(), sieving.Metrics.BPS())
	}
	if cc := ccOf(t, f, core.BPS); cc < 0.7 {
		t.Errorf("ext3: CC(BPS) = %+.2f", cc)
	}
	if cc := ccOf(t, f, core.BW); cc >= 0 {
		t.Errorf("ext3: CC(BW) = %+.2f, want wrong direction", cc)
	}
}

// TestFig4RankCorrelationPerfect quantifies why Fig. 4's Pearson CC sits
// below the paper's: the rate metrics relate to execution time
// hyperbolically. Their *ordering* is perfect — Spearman rank
// correlation is exactly ±1 for every metric.
func TestFig4RankCorrelationPerfect(t *testing.T) {
	f, err := testSuite(t).Figure("fig4")
	if err != nil {
		t.Fatal(err)
	}
	exec := make([]float64, len(f.Points))
	for i, pt := range f.Points {
		exec[i] = pt.Metrics.ExecTime.Seconds()
	}
	for _, k := range core.Kinds {
		vals := make([]float64, len(f.Points))
		for i, pt := range f.Points {
			vals[i] = pt.Metrics.Value(k)
		}
		rank := stats.NormalizedCC(stats.Spearman(vals, exec), k.ExpectedDirection())
		if math.Abs(rank-1) > 1e-9 {
			t.Errorf("fig4: rank CC(%v) = %v, want exactly +1", k, rank)
		}
	}
}
