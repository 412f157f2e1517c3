package lasso

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// synthProblem builds a classification problem where only the first
// `informative` of d features separate the classes.
func synthProblem(rng *rand.Rand, n, d, informative int, gap float64) Problem {
	x := make([]float64, n*d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		label := float64(i % 2)
		y[i] = label
		for j := 0; j < d; j++ {
			v := rng.NormFloat64()
			if j < informative && label == 1 {
				v += gap
			}
			x[i*d+j] = v
		}
	}
	return Problem{X: x, Y: y, N: n, D: d}
}

func TestFitSeparatesObviousFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := synthProblem(rng, 80, 5, 1, 6)
	res, err := Fit(p, 0.01, 2000, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weights[0] <= 0 {
		t.Fatalf("informative weight = %v; want > 0", res.Weights[0])
	}
	for j := 1; j < 5; j++ {
		if math.Abs(res.Weights[j]) > math.Abs(res.Weights[0]) {
			t.Fatalf("noise weight %d (%v) exceeds informative (%v)", j, res.Weights[j], res.Weights[0])
		}
	}
}

func TestFitHighLambdaZeroesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := synthProblem(rng, 40, 4, 2, 3)
	res, err := Fit(p, 100, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Support()) != 0 {
		t.Fatalf("support = %v; want empty", res.Support())
	}
}

func TestFitShapeErrors(t *testing.T) {
	if _, err := Fit(Problem{}, 0.1, 10, 0); err == nil {
		t.Fatal("empty problem accepted")
	}
	if _, err := Fit(Problem{X: []float64{1}, Y: []float64{1, 0}, N: 2, D: 1}, 0.1, 10, 0); err == nil {
		t.Fatal("mismatched X accepted")
	}
}

func TestSupportOrdering(t *testing.T) {
	r := &Result{Weights: []float64{0, -3, 1, 0, 2}}
	got := r.Support()
	want := []int{1, 4, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v; want %v", got, want)
		}
	}
}

func TestSelectKFindsInformativeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// 12 features, 5 informative; ask for 5 (paper's target).
	p := synthProblem(rng, 120, 12, 5, 4)
	sel, res, _, err := SelectK(p, 5, 3000, SolverCD)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) < 5 {
		t.Fatalf("selected %d variables; want >= 5 (got %v)", len(sel), sel)
	}
	// The 5 informative features must dominate the selection.
	informative := 0
	for _, j := range sel[:5] {
		if j < 5 {
			informative++
		}
	}
	if informative < 4 {
		t.Fatalf("only %d of top-5 selections are informative: %v (lambda %v)", informative, sel, res.Lambda)
	}
}

func TestSelectKRejectsBadK(t *testing.T) {
	for _, sv := range []Solver{SolverCD, SolverISTA} {
		if _, _, _, err := SelectK(Problem{X: []float64{1}, Y: []float64{1}, N: 1, D: 1}, 0, 10, sv); err == nil {
			t.Fatalf("solver %d: k=0 accepted", sv)
		}
	}
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ x, t, want float64 }{
		{5, 2, 3}, {-5, 2, -3}, {1, 2, 0}, {-1, 2, 0}, {2, 2, 0},
	}
	for _, c := range cases {
		if got := softThreshold(c.x, c.t); got != c.want {
			t.Fatalf("softThreshold(%v,%v) = %v; want %v", c.x, c.t, got, c.want)
		}
	}
}

func TestFitMonotoneSupportInLambda(t *testing.T) {
	// Support size should (weakly) shrink as lambda grows.
	rng := rand.New(rand.NewSource(3))
	p := synthProblem(rng, 60, 8, 3, 3)
	prev := math.MaxInt32
	for _, lam := range []float64{0.001, 0.01, 0.05, 0.2, 1.0} {
		res, err := Fit(p, lam, 1500, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		s := len(res.Support())
		if s > prev+1 { // allow slack of 1 for path non-monotonicity
			t.Fatalf("support grew sharply with lambda: %d -> %d at %v", prev, s, lam)
		}
		if s < prev {
			prev = s
		}
	}
}

// TestSelectKWarmMatchesCold sweeps randomized designs — including
// ill-posed ones where k exceeds the informative feature count, so
// noise picks sit right at the activation threshold — and checks the
// CD path search, whose fits share the column-major design and scratch
// across the path, against cold dense ISTA in every respect: ranked
// selection, tuned lambda, fitted weights, intercept, iteration count
// and path statistics. It runs with maxIter 0, so it also covers the
// default iteration budget.
func TestSelectKWarmMatchesCold(t *testing.T) {
	rng := uint64(12345)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / (1 << 53)
	}
	for trial := 0; trial < 20; trial++ {
		n := 20 + trial
		d := 5 + trial%12
		informative := 1 + trial%4
		x := make([]float64, n*d)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			if i >= n/2 {
				y[i] = 1
			}
			for j := 0; j < d; j++ {
				v := next() - 0.5
				if j < informative {
					v += y[i] * (0.5 + float64(j)*0.3)
				}
				x[i*d+j] = v
			}
		}
		p := Problem{X: x, Y: y, N: n, D: d}
		k := 1 + trial%5
		warmSel, warmRes, warmSt, err := SelectK(p, k, 0, SolverCD)
		if err != nil {
			t.Fatal(err)
		}
		coldSel, coldRes, coldSt, err := SelectK(p, k, 0, SolverISTA)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warmSel, coldSel) {
			t.Fatalf("trial %d: selections: cd %v ista %v", trial, warmSel, coldSel)
		}
		if warmSt != coldSt {
			t.Fatalf("trial %d: path stats: cd %+v ista %+v", trial, warmSt, coldSt)
		}
		if warmSt.Fits == 0 || warmSt.Iters > warmSt.Fits*500 {
			t.Fatalf("trial %d: path stats %+v outside the default 500-iteration budget", trial, warmSt)
		}
		requireSameFit(t, fmt.Sprintf("trial %d", trial), warmRes, coldRes)
	}
}
