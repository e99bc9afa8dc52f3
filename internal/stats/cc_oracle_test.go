package stats

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"bps/internal/core"
)

// exactCC is the exact-arithmetic oracle for Pearson on integer-valued
// series. With n points, the correlation is
//
//	N / sqrt(Sxx · Syy),  N = nΣxy − ΣxΣy,  Sxx = nΣx² − (Σx)²,
//
// and every one of those sums is an exact integer. The oracle forms the
// exact ratio N²/(Sxx·Syy) as a big.Rat, so the only rounding is the
// final conversion and square root. It shares no code with Pearson's
// two-pass float computation. ok is false when the correlation is
// undefined: fewer than two points, or a constant series.
func exactCC(x, y []int64) (cc float64, sign int, ok bool) {
	n := int64(len(x))
	if n < 2 {
		return 0, 0, false
	}
	var sx, sy, sxx, syy, sxy big.Int
	var t big.Int
	for i := range x {
		xi, yi := big.NewInt(x[i]), big.NewInt(y[i])
		sx.Add(&sx, xi)
		sy.Add(&sy, yi)
		sxx.Add(&sxx, t.Mul(xi, xi))
		syy.Add(&syy, t.Mul(yi, yi))
		sxy.Add(&sxy, t.Mul(xi, yi))
	}
	bn := big.NewInt(n)
	centered := func(sq, a, b *big.Int) *big.Int {
		var l, r big.Int
		l.Mul(bn, sq)
		r.Mul(a, b)
		return l.Sub(&l, &r)
	}
	num := centered(&sxy, &sx, &sy)
	vx := centered(&sxx, &sx, &sx)
	vy := centered(&syy, &sy, &sy)
	if vx.Sign() == 0 || vy.Sign() == 0 {
		return 0, 0, false
	}
	var num2, den big.Int
	num2.Mul(num, num)
	den.Mul(vx, vy)
	r2, _ := new(big.Rat).SetFrac(&num2, &den).Float64()
	return float64(num.Sign()) * math.Sqrt(r2), num.Sign(), true
}

// checkCC compares Pearson and NormalizedCC on one pair of integer
// series against the exact oracle.
func checkCC(t *testing.T, x, y []int64) {
	t.Helper()
	fx, fy := make([]float64, len(x)), make([]float64, len(y))
	for i := range x {
		fx[i], fy[i] = float64(x[i]), float64(y[i])
	}
	got := Pearson(fx, fy)
	want, sign, ok := exactCC(x, y)
	if !ok {
		if !math.IsNaN(got) {
			t.Fatalf("Pearson(%v, %v) = %v, want NaN (undefined)", x, y, got)
		}
		for _, d := range []core.Direction{core.Positive, core.Negative} {
			if n := NormalizedCC(got, d); !math.IsNaN(n) {
				t.Fatalf("NormalizedCC(NaN, %v) = %v, want NaN", d, n)
			}
		}
		return
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Pearson(%v, %v) = %.17g, exact %.17g (error %.3g)", x, y, got, want, math.Abs(got-want))
	}
	// The sign rule: +|CC| when the exact sign matches the expected
	// direction, −|CC| otherwise (an exact zero matches neither).
	for _, d := range []core.Direction{core.Positive, core.Negative} {
		norm := -math.Abs(want)
		if sign != 0 && sign == int(d) {
			norm = math.Abs(want)
		}
		if n := NormalizedCC(got, d); math.Abs(n-norm) > 1e-12 {
			t.Fatalf("NormalizedCC(%.17g, %v) = %.17g, want %.17g", got, d, n, norm)
		}
	}
}

// TestPearsonExactOracle checks Pearson on random integer-valued series
// against exact rational arithmetic to 1e-12. Lengths run from 2 to 64
// points and magnitudes from single digits to 2^40, the last
// around large offsets.
func TestPearsonExactOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0bad_5eed))
	draw := func(n int, lo, span int64) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = lo + rng.Int63n(span)
		}
		return s
	}
	shapes := []struct{ lo, span int64 }{
		{0, 4}, {-500, 1000}, {0, 1 << 20}, {-1 << 40, 1 << 41}, {1 << 30, 1 << 10}, {1e9, 100},
	}
	for i := 0; i < 3000; i++ {
		n := 2 + rng.Intn(63)
		sx, sy := shapes[rng.Intn(len(shapes))], shapes[rng.Intn(len(shapes))]
		checkCC(t, draw(n, sx.lo, sx.span), draw(n, sy.lo, sy.span))
	}
}

// TestPearsonExactDegenerate covers the edge cases by hand: constant
// series (undefined), two points (exactly ±1), and exactly uncorrelated
// series (0, which NormalizedCC reports as −0 for both directions).
func TestPearsonExactDegenerate(t *testing.T) {
	for _, c := range [][2][]int64{
		{{7, 7, 7}, {1, 2, 3}},
		{{1, 2, 3}, {-4, -4, -4}},
		{{5, 5}, {5, 5}},
		{{0, 1}, {10, 20}},
		{{0, 1}, {20, 10}},
		{{-3, 1 << 40}, {1 << 40, -3}},
		{{1, 2, 3}, {1, 0, 1}},
	} {
		checkCC(t, c[0], c[1])
	}
	if cc, sign, _ := exactCC([]int64{0, 1}, []int64{20, 10}); cc != -1 || sign != -1 {
		t.Fatalf("two-point oracle = %v (sign %d), want exactly -1", cc, sign)
	}
}
