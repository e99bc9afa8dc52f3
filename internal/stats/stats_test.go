package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bps/internal/core"
	"bps/internal/sim"
)

func TestMeanAndStdDev(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty-slice mean/stddev not 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if StdDev(xs) != 2 {
		t.Fatalf("StdDev = %v", StdDev(xs))
	}
}

func TestPearsonPerfectCorrelations(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	up := []float64{10, 20, 30, 40, 50}
	down := []float64{50, 40, 30, 20, 10}
	if cc := Pearson(x, up); math.Abs(cc-1) > 1e-12 {
		t.Fatalf("Pearson(up) = %v", cc)
	}
	if cc := Pearson(x, down); math.Abs(cc+1) > 1e-12 {
		t.Fatalf("Pearson(down) = %v", cc)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1, 2}, []float64{3})) {
		t.Error("length mismatch did not give NaN")
	}
	if !math.IsNaN(Pearson([]float64{1}, []float64{1})) {
		t.Error("single point did not give NaN")
	}
	if !math.IsNaN(Pearson([]float64{2, 2, 2}, []float64{1, 5, 9})) {
		t.Error("constant series did not give NaN")
	}
}

func TestPearsonUncorrelated(t *testing.T) {
	// Symmetric V shape: zero linear correlation.
	x := []float64{-2, -1, 0, 1, 2}
	y := []float64{4, 1, 0, 1, 4}
	if cc := Pearson(x, y); math.Abs(cc) > 1e-12 {
		t.Fatalf("Pearson(V) = %v, want 0", cc)
	}
}

// Property: Pearson is bounded in [-1, 1] and symmetric, and invariant
// under positive affine transforms of either argument.
func TestPearsonProperties(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%20) + 3
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		cc := Pearson(x, y)
		if math.IsNaN(cc) {
			return true
		}
		if cc < -1-1e-9 || cc > 1+1e-9 {
			return false
		}
		if math.Abs(cc-Pearson(y, x)) > 1e-9 {
			return false
		}
		scaled := make([]float64, n)
		for i := range x {
			scaled[i] = 3*x[i] + 7
		}
		return math.Abs(Pearson(scaled, y)-cc) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: negating one series negates the CC.
func TestPearsonAntisymmetry(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 10)
		y := make([]float64, 10)
		for i := range x {
			x[i], y[i] = rng.Float64(), rng.Float64()
		}
		cc := Pearson(x, y)
		neg := make([]float64, 10)
		for i := range y {
			neg[i] = -y[i]
		}
		return math.IsNaN(cc) || math.Abs(Pearson(x, neg)+cc) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedCC(t *testing.T) {
	cases := []struct {
		cc       float64
		expected core.Direction
		want     float64
	}{
		{-0.9, core.Negative, 0.9},  // matches expectation → positive
		{0.9, core.Negative, -0.9},  // contradicts → negative
		{0.7, core.Positive, 0.7},   // matches
		{-0.7, core.Positive, -0.7}, // contradicts
		{0, core.Negative, 0},
	}
	for _, c := range cases {
		if got := NormalizedCC(c.cc, c.expected); got != c.want {
			t.Errorf("NormalizedCC(%v, %v) = %v, want %v", c.cc, c.expected, got, c.want)
		}
	}
	if !math.IsNaN(NormalizedCC(math.NaN(), core.Negative)) {
		t.Error("NaN did not pass through")
	}
}

func TestMetricCC(t *testing.T) {
	// BPS falling while time rises: expected (negative) direction → +1.
	bpsVals := []float64{100, 80, 60, 40}
	times := []float64{1, 2, 3, 4}
	if got := MetricCC(core.BPS, bpsVals, times); math.Abs(got-1) > 1e-9 {
		t.Fatalf("MetricCC(BPS) = %v, want +1", got)
	}
	// IOPS rising while time rises: wrong direction → −1.
	iopsVals := []float64{10, 20, 30, 40}
	if got := MetricCC(core.IOPS, iopsVals, times); math.Abs(got+1) > 1e-9 {
		t.Fatalf("MetricCC(IOPS) = %v, want -1", got)
	}
}

func TestNewCCTable(t *testing.T) {
	// Fabricate three runs where everything improves together: all four
	// metrics should come out with matching directions.
	mkRun := func(scale int64) core.Metrics {
		return core.Metrics{
			Ops:        100,
			Blocks:     100 * 128,
			MovedBytes: 100 * 128 * 512,
			IOTime:     sim.Time(scale) * sim.Second,
			SumRespt:   sim.Time(scale) * sim.Second,
			ExecTime:   sim.Time(scale) * sim.Second,
		}
	}
	runs := []core.Metrics{mkRun(1), mkRun(2), mkRun(4)}
	tbl := NewCCTable("test", runs)
	for _, k := range core.Kinds {
		cc := tbl.CC[k]
		if math.IsNaN(cc) {
			t.Fatalf("%v CC is NaN", k)
		}
		if cc < 0.9 {
			t.Errorf("%v CC = %v, want strongly matching", k, cc)
		}
	}
}

func TestSpearmanPerfectMonotone(t *testing.T) {
	// Hyperbolic relation: Pearson well below 1, Spearman exactly 1.
	x := []float64{1, 2, 4, 8, 16, 32}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 1 / v
	}
	pearson := Pearson(x, y)
	spearman := Spearman(x, y)
	if math.Abs(spearman+1) > 1e-12 {
		t.Fatalf("Spearman = %v, want -1 (perfect inverse ordering)", spearman)
	}
	if pearson <= -0.99 {
		t.Fatalf("Pearson = %v; fixture should be nonlinear enough to separate the two", pearson)
	}
}

func TestSpearmanTies(t *testing.T) {
	x := []float64{1, 2, 2, 3}
	y := []float64{10, 20, 20, 30}
	if cc := Spearman(x, y); math.Abs(cc-1) > 1e-12 {
		t.Fatalf("Spearman with ties = %v, want 1", cc)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if !math.IsNaN(Spearman([]float64{1}, []float64{2})) {
		t.Error("single point did not give NaN")
	}
	if !math.IsNaN(Spearman([]float64{2, 2}, []float64{1, 3})) {
		t.Error("constant series did not give NaN")
	}
}

func TestRanksAveraging(t *testing.T) {
	got := ranks([]float64{10, 30, 20, 30})
	want := []float64{1, 3.5, 2, 3.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}

// Property: Spearman is invariant under any strictly monotone transform
// of either variable.
func TestSpearmanMonotoneInvariance(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		base := Spearman(x, y)
		tx := make([]float64, n)
		for i := range x {
			tx[i] = math.Exp(x[i]) // strictly increasing
		}
		return math.IsNaN(base) || math.Abs(Spearman(tx, y)-base) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
