package lasso

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// pipelineShapedProblem mirrors the selection-stage design the §3
// lasso sees: ~38 runs over ~34 standardized output variables with a
// handful of separating features.
func pipelineShapedProblem() Problem {
	n, d := 38, 34
	x := make([]float64, n*d)
	y := make([]float64, n)
	s := 1.0
	for i := range x {
		s = math.Mod(s*1.1283791670955126+0.7071, 1)
		x[i] = s * 3.0
	}
	for i := 30; i < n; i++ {
		y[i] = 1
		for j := 0; j < 5; j++ {
			x[i*d+j] += 0.7
		}
	}
	return Problem{X: x, Y: y, N: n, D: d}
}

func BenchmarkSelectK(b *testing.B) {
	p := pipelineShapedProblem()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := SelectK(p, 5, 1500, SolverCD); err != nil {
			b.Fatal(err)
		}
	}
}

// catalogProblem loads the real GOFFGRATCH selection design exported
// from internal/experiments (see TestExportLassoFixture there): the
// exact (X, y) the §3 selection stage hands the lasso, with the small
// true support and near-duplicate columns the synthetic design lacks.
func catalogProblem(tb testing.TB) (Problem, int) {
	buf, err := os.ReadFile("testdata/goffgratch.json")
	if err != nil {
		tb.Fatalf("catalog fixture (regenerate with RCA_EXPORT_FIXTURE=1 go test ./internal/experiments -run TestExportLassoFixture): %v", err)
	}
	var fix struct {
		N, D, K int
		X, Y    []float64
	}
	if err := json.Unmarshal(buf, &fix); err != nil {
		tb.Fatal(err)
	}
	return Problem{X: fix.X, Y: fix.Y, N: fix.N, D: fix.D}, fix.K
}

func benchSelectKSolver(b *testing.B, solver Solver) {
	p, k := catalogProblem(b)
	b.ReportAllocs()
	var iters int
	start := time.Now()
	for i := 0; i < b.N; i++ {
		_, _, st, err := SelectK(p, k, 1500, solver)
		if err != nil {
			b.Fatal(err)
		}
		iters += st.Iters
	}
	b.ReportMetric(float64(time.Since(start).Milliseconds())/float64(b.N), "lassoms")
	b.ReportMetric(float64(iters)/float64(b.N), "lassoiters")
}

// BenchmarkSelectKCD runs the screened engine with the packed row
// pass and with the Go loops alone, in one binary.
func BenchmarkSelectKCD(b *testing.B) {
	b.Run("packed", func(b *testing.B) {
		requirePackedRowPass(b)
		benchSelectKSolver(b, SolverCD)
	})
	b.Run("go", func(b *testing.B) {
		setPackedRowPass(b, false)
		benchSelectKSolver(b, SolverCD)
	})
}

func BenchmarkSelectKISTA(b *testing.B) { benchSelectKSolver(b, SolverISTA) }

// TestSparseDotMatchesDense pins the bit-identity of the sparse-dot
// fast path against a dense reference fit.
func TestSparseDotMatchesDense(t *testing.T) {
	p := pipelineShapedProblem()
	z, _, _ := standardize(p.X, p.N, p.D)
	fast := fitStandardized(z, p.Y, p.N, p.D, 0.02, 800, 1e-7, false)
	slow := fitStandardized(z, p.Y, p.N, p.D, 0.02, 800, 1e-7, true)
	if fast.Intercept != slow.Intercept || fast.Iters != slow.Iters {
		t.Fatalf("intercept/iters diverge: %v/%d vs %v/%d",
			fast.Intercept, fast.Iters, slow.Intercept, slow.Iters)
	}
	for j := range fast.Weights {
		if math.Float64bits(fast.Weights[j]) != math.Float64bits(slow.Weights[j]) {
			t.Fatalf("w[%d]: %v vs %v", j, fast.Weights[j], slow.Weights[j])
		}
	}
}
