package lasso

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// requireSameFit asserts two results agree to the bit: weights,
// intercept, lambda and iteration count.
func requireSameFit(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if math.Float64bits(a.Intercept) != math.Float64bits(b.Intercept) ||
		a.Iters != b.Iters || a.Lambda != b.Lambda {
		t.Fatalf("%s: intercept/iters/lambda diverge: %v/%d/%v vs %v/%d/%v",
			label, a.Intercept, a.Iters, a.Lambda, b.Intercept, b.Iters, b.Lambda)
	}
	for j := range a.Weights {
		if math.Float64bits(a.Weights[j]) != math.Float64bits(b.Weights[j]) {
			t.Fatalf("%s: w[%d]: %v vs %v", label, j, a.Weights[j], b.Weights[j])
		}
	}
}

// TestDesignHoistBitIdentical pins satellite invariant 1: the O(n·d)
// finiteness and Lipschitz scans hoisted into newDesign are shared by
// every fit on the path, and sharing them changes nothing — a design
// reused across many lambdas produces exactly the fits of a fresh
// design (fresh scans) per lambda.
func TestDesignHoistBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := synthProblem(rng, 40, 12, 4, 2.5)
	z, _, _ := standardize(p.X, p.N, p.D)
	shared := newDesign(z, p.Y, p.N, p.D, false)
	for _, lam := range []float64{0.5, 0.1, 0.02, 0.004} {
		fresh := newDesign(z, p.Y, p.N, p.D, false)
		if fresh.step != shared.step || fresh.finite != shared.finite {
			t.Fatalf("lam %v: hoisted scans diverge: step %v/%v finite %v/%v",
				lam, shared.step, fresh.step, shared.finite, fresh.finite)
		}
		a := fitDense(shared, lam, 600, 1e-7)
		b := fitDense(fresh, lam, 600, 1e-7)
		requireSameFit(t, "hoist", a, b)
	}
}

// TestSupportTieBreakExact pins the Support ranking contract on exact
// ties: |w| descending, index ascending. Both solver engines inherit
// the ranking from this single implementation, so degenerate designs
// (duplicated or symmetric columns, which produce bitwise-equal
// weights) rank identically everywhere.
func TestSupportTieBreakExact(t *testing.T) {
	r := &Result{Weights: []float64{0.5, -0.5, 0, 0.25, 0.5, -0.25}}
	want := []int{0, 1, 4, 3, 5}
	if got := r.Support(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Support() = %v, want %v", got, want)
	}

	// A fitted design with a duplicated column: the duplicate tracks
	// its twin through the whole trajectory (identical gradient
	// entries), so the tie is exact and the ranking must fall back to
	// index order.
	rng := rand.New(rand.NewSource(11))
	p := synthProblem(rng, 60, 6, 2, 4)
	for i := 0; i < p.N; i++ {
		p.X[i*p.D+3] = p.X[i*p.D+0] // column 3 duplicates column 0
	}
	res, err := Fit(p, 0.01, 800, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Weights[0]) != math.Float64bits(res.Weights[3]) {
		t.Fatalf("duplicated columns fit different weights: %v vs %v",
			res.Weights[0], res.Weights[3])
	}
	sup := res.Support()
	pos := map[int]int{}
	for rank, j := range sup {
		pos[j] = rank
	}
	if _, ok := pos[0]; ok && res.Weights[0] != 0 {
		if pos[0] > pos[3] {
			t.Fatalf("tie not broken by index: support %v weights %v", sup, res.Weights)
		}
	}
}

// requireSolversAgree runs SelectK with both engines and asserts the
// full bit-equality contract: error status, ranked selection, path
// statistics, and the selected fit's weights, intercept, lambda and
// iteration count.
func requireSolversAgree(t *testing.T, label string, p Problem, k, maxIter int) {
	t.Helper()
	istaSel, istaRes, istaSt, istaErr := SelectK(p, k, maxIter, SolverISTA)
	cdSel, cdRes, cdSt, cdErr := SelectK(p, k, maxIter, SolverCD)
	if (istaErr == nil) != (cdErr == nil) {
		t.Fatalf("%s: error mismatch: %v vs %v", label, istaErr, cdErr)
	}
	if istaErr != nil {
		return
	}
	if !reflect.DeepEqual(istaSel, cdSel) {
		t.Fatalf("%s: selections differ: ista %v cd %v", label, istaSel, cdSel)
	}
	if istaSt != cdSt {
		t.Fatalf("%s: path stats differ: ista %+v cd %+v", label, istaSt, cdSt)
	}
	requireSameFit(t, label, istaRes, cdRes)
}

// flattenColumn overwrites column j with a constant. 3 and every sum
// of up to 63 copies of it are exact, so the column's mean is exactly
// 3 and it standardizes to exact zeros: a zero column norm, which keeps
// the coordinate live at every refresh.
func flattenColumn(p Problem, j int) {
	for i := 0; i < p.N; i++ {
		p.X[i*p.D+j] = 3
	}
}

// TestSolverCDBitIdentical sweeps randomized designs — separable,
// noisy, and ill-posed ones where k exceeds the informative count, so
// selections sit right at the activation threshold — and checks the
// coordinate-screened engine against the cold dense ISTA oracle in every
// observable: ranked selection, tuned lambda, fitted weights,
// intercept, iteration counts and path statistics. The screen only
// ever skips work it has certified to be a bitwise no-op, so nothing
// may differ. Fixed cases cover the shapes the column-major indexing
// must get right: a single column, an all-constant column, and more
// columns than rows.
func TestSolverCDBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 10 + rng.Intn(50)
		d := 2 + rng.Intn(24)
		informative := rng.Intn(d + 1)
		gap := rng.Float64() * 4
		p := synthProblem(rng, n, d, informative, gap)
		k := 1 + rng.Intn(6)
		requireSolversAgree(t, fmt.Sprintf("trial %d (n=%d d=%d k=%d)", trial, n, d, k), p, k, 700)
	}

	requireSolversAgree(t, "d=1", synthProblem(rng, 30, 1, 1, 1.5), 1, 700)
	requireSolversAgree(t, "d=1 noise", synthProblem(rng, 24, 1, 0, 0), 1, 700)

	flat := synthProblem(rng, 40, 6, 2, 2)
	flattenColumn(flat, 2)
	z, _, _ := standardize(flat.X, flat.N, flat.D)
	for i := 0; i < flat.N; i++ {
		if z[i*flat.D+2] != 0 {
			t.Fatalf("constant column standardizes to %v at row %d, want 0", z[i*flat.D+2], i)
		}
	}
	requireSolversAgree(t, "constant column", flat, 3, 700)
	requireSolversAgree(t, "constant column k>live", flat, 6, 700)

	wide := synthProblem(rng, 10, 25, 3, 2)
	requireSolversAgree(t, "d>n", wide, 5, 700)
	flattenColumn(wide, 0)
	requireSolversAgree(t, "d>n constant column", wide, 2, 700)
}

// TestSolverCDBitIdenticalCatalog runs the same differential on the
// real GOFFGRATCH catalog design (numerically degenerate: flat KKT
// valley, near-duplicate columns, truncation-limited fits) — the
// problem class the pipeline actually feeds the lasso.
func TestSolverCDBitIdenticalCatalog(t *testing.T) {
	p, k := catalogProblem(t)
	requireSolversAgree(t, "catalog", p, k, 1500)
}

// FuzzLassoSolvers is the differential fuzzer for the two lasso
// engines (screened CD against cold dense ISTA): arbitrary design
// shapes (one to 31 columns, fewer or more than the rows, optionally
// one all-constant column), seeds and separations, with the full
// bit-equality contract asserted on every probe — the screened
// engine's inertness certificates must hold on whatever degenerate
// geometry the fuzzer finds.
func FuzzLassoSolvers(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(9), uint8(3), 2.0, uint8(3), uint8(0))
	f.Add(int64(42), uint8(60), uint8(21), uint8(0), 0.0, uint8(1), uint8(0))
	f.Add(int64(7), uint8(12), uint8(1), uint8(30), 5.0, uint8(5), uint8(0))
	f.Add(int64(99), uint8(45), uint8(17), uint8(2), 0.3, uint8(4), uint8(0))
	f.Add(int64(-5), uint8(20), uint8(3), uint8(1), 8.0, uint8(2), uint8(0))
	f.Add(int64(3), uint8(22), uint8(0), uint8(1), 1.5, uint8(1), uint8(0))  // d = 1
	f.Add(int64(8), uint8(40), uint8(7), uint8(2), 2.0, uint8(3), uint8(3))  // constant column 2
	f.Add(int64(13), uint8(2), uint8(24), uint8(3), 2.0, uint8(5), uint8(0)) // d = 25 > n = 10
	f.Add(int64(21), uint8(0), uint8(30), uint8(4), 3.0, uint8(4), uint8(1)) // d = 31 > n = 8, constant column 0
	f.Fuzz(func(t *testing.T, seed int64, nRaw, dRaw, infRaw uint8, gap float64, kRaw, flatRaw uint8) {
		n := 8 + int(nRaw)%56
		d := 1 + int(dRaw)%31
		informative := int(infRaw) % (d + 1)
		if math.IsNaN(gap) || math.IsInf(gap, 0) {
			gap = 1
		}
		gap = math.Mod(math.Abs(gap), 8)
		k := 1 + int(kRaw)%6
		rng := rand.New(rand.NewSource(seed))
		p := synthProblem(rng, n, d, informative, gap)
		if j := int(flatRaw) % (d + 1); j > 0 {
			flattenColumn(p, j-1)
		}
		requireSolversAgree(t, "fuzz", p, k, 400)
	})
}
