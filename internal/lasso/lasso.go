// Package lasso implements L1-penalized (lasso) logistic regression via
// proximal gradient descent (ISTA with backtracking-free fixed step from
// a Lipschitz bound), plus a regularization-path search that tunes the
// penalty to select approximately k variables — the paper's second
// variable-selection method (§3), which classifies ensemble vs.
// experimental runs and keeps the ~5 best-separating output variables.
package lasso

import (
	"errors"
	"math"
	"sort"
)

// Problem is a binary classification design: X is n×d row-major, y holds
// labels in {0,1} (0 = ensemble member, 1 = experimental run).
type Problem struct {
	X []float64
	Y []float64
	N int
	D int
}

// Result is a fitted lasso logistic model.
type Result struct {
	Weights   []float64 // d coefficients (standardized feature space)
	Intercept float64
	Lambda    float64
	Iters     int
}

// standardize returns a standardized copy of X together with the means
// and stds used, so selection is scale-invariant.
func standardize(x []float64, n, d int) ([]float64, []float64, []float64) {
	mean := make([]float64, d)
	std := make([]float64, d)
	for j := 0; j < d; j++ {
		var s float64
		for i := 0; i < n; i++ {
			s += x[i*d+j]
		}
		mean[j] = s / float64(n)
	}
	for j := 0; j < d; j++ {
		var s float64
		for i := 0; i < n; i++ {
			dv := x[i*d+j] - mean[j]
			s += dv * dv
		}
		std[j] = math.Sqrt(s / float64(n))
		if std[j] == 0 {
			std[j] = 1
		}
	}
	z := make([]float64, n*d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			z[i*d+j] = (x[i*d+j] - mean[j]) / std[j]
		}
	}
	return z, mean, std
}

func sigmoid(t float64) float64 {
	if t >= 0 {
		e := math.Exp(-t)
		return 1 / (1 + e)
	}
	e := math.Exp(t)
	return e / (1 + e)
}

// Fit minimizes the L1-penalized mean logistic loss
//
//	(1/n) Σ log(1+exp(-ỹ(w·x+b))) + λ‖w‖₁   (ỹ ∈ {-1,+1})
//
// by proximal gradient descent. The intercept is unpenalized.
func Fit(p Problem, lambda float64, maxIter int, tol float64) (*Result, error) {
	if p.N == 0 || p.D == 0 || len(p.X) != p.N*p.D || len(p.Y) != p.N {
		return nil, errors.New("lasso: bad problem shape")
	}
	if maxIter <= 0 {
		maxIter = 500
	}
	if tol <= 0 {
		tol = 1e-7
	}
	z, _, _ := standardize(p.X, p.N, p.D)
	return fitStandardized(z, p.Y, p.N, p.D, lambda, maxIter, tol, false), nil
}

// design is the per-path state every fit over one standardized design
// shares: the design itself plus the two O(n·d) scans — the finiteness
// check gating the sparse-dot fast path and the Lipschitz row-norm
// bound fixing the ISTA step — that used to be recomputed inside every
// one of SelectK's bisection probes (at most 30; the catalog averages
// 19 per SelectK). Hoisting them is a pure move:
// the loops are byte-for-byte the ones fitDense ran, so the computed
// step and finiteness flag (and therefore every fit) are bit-identical
// (TestDesignHoistBitIdentical pins this).
type design struct {
	z, y      []float64
	n, d      int
	step, inv float64
	finite    bool
}

// newDesign runs the hoisted scans once. forceDense pins the dense
// gradient path regardless of finiteness (the differential knob
// TestSparseDotMatchesDense uses).
func newDesign(z, y []float64, n, d int, forceDense bool) *design {
	ds := &design{z: z, y: y, n: n, d: d}
	// Sparse dot products: skipping exact-zero weights is bit-identical
	// to the dense sum — a +0 weight contributes a signed-zero product,
	// and x + ±0 == x for every accumulator this loop can produce (it
	// starts at +0 and signed-zero additions keep it there) — except
	// when a non-finite feature would turn 0·±Inf or 0·NaN into NaN, so
	// non-finite designs take the dense path.
	ds.finite = !forceDense
	for _, v := range z {
		if v != v || v > math.MaxFloat64 || v < -math.MaxFloat64 {
			ds.finite = false
			break
		}
	}
	// Lipschitz constant of the logistic gradient: L <= max row norm² / 4.
	var lip float64
	for i := 0; i < n; i++ {
		var rn float64
		for _, xv := range z[i*d : (i+1)*d] {
			rn += xv * xv
		}
		rn = (rn + 1) / 4 // +1 for intercept column
		if rn > lip {
			lip = rn
		}
	}
	if lip == 0 {
		lip = 1
	}
	ds.step = 1 / lip
	ds.inv = 1 / float64(n)
	return ds
}

// fitStandardized runs the ISTA loop over a standardized design.
func fitStandardized(z, y []float64, n, d int, lambda float64, maxIter int, tol float64, forceDense bool) *Result {
	return fitDense(newDesign(z, y, n, d, forceDense), lambda, maxIter, tol)
}

// fitDense is the ISTA loop from the zero iterate over an
// already-standardized design (SelectK's path search shares one
// standardization across every lambda). The inner loops are tuned — sparse dot
// products over the iterate's support, one sigmoid per distinct dot,
// an unrolled gradient update — but every floating-point operation and
// its order is exactly the original dense loop's, so fitted weights
// are bit-identical (TestSparseDotMatchesDense pins this).
func fitDense(ds *design, lambda float64, maxIter int, tol float64) *Result {
	z, y, n, d := ds.z, ds.y, ds.n, ds.d
	finite, step, inv := ds.finite, ds.step, ds.inv
	w := make([]float64, d)
	var b float64
	grad := make([]float64, d)
	nz := make([]int, 0, d)
	var iters int
	for iters = 0; iters < maxIter; iters++ {
		for j := range grad {
			grad[j] = 0
		}
		sparse := false
		if finite {
			nz = nz[:0]
			for j, wj := range w {
				if wj != 0 {
					nz = append(nz, j)
				}
			}
			sparse = len(nz)*2 < d
		}
		var gradB float64
		// Equal dots share one sigmoid: during the (long) pure-intercept
		// phase every row's dot is exactly b, so one exp serves all n
		// rows. Bitwise equality makes the reuse exact; NaN never
		// matches itself, so NaN dots recompute.
		lastDot := math.NaN()
		var lastSig float64
		for i := 0; i < n; i++ {
			var dot float64
			row := z[i*d : (i+1)*d]
			if sparse {
				for _, j := range nz {
					dot += w[j] * row[j]
				}
			} else {
				wr := w
				if len(wr) > len(row) {
					wr = wr[:len(row)]
				}
				for j, wv := range wr {
					dot += wv * row[j]
				}
			}
			dot += b
			// p(y=1|x) - y.
			sig := lastSig
			if dot != lastDot {
				sig = sigmoid(dot)
				lastDot, lastSig = dot, sig
			}
			resid := sig - y[i]
			// Each grad[j] is its own accumulator, so unrolling over j
			// reorders nothing.
			gr := grad
			if len(gr) > len(row) {
				gr = gr[:len(row)]
			}
			j := 0
			for ; j+4 <= len(row) && j+4 <= len(gr); j += 4 {
				gr[j] += resid * row[j]
				gr[j+1] += resid * row[j+1]
				gr[j+2] += resid * row[j+2]
				gr[j+3] += resid * row[j+3]
			}
			for ; j < len(row); j++ {
				gr[j] += resid * row[j]
			}
			gradB += resid
		}
		var maxDelta float64
		for j := 0; j < d; j++ {
			nw := softThreshold(w[j]-step*grad[j]*inv, step*lambda)
			if dd := math.Abs(nw - w[j]); dd > maxDelta {
				maxDelta = dd
			}
			w[j] = nw
		}
		nb := b - step*gradB*inv
		if dd := math.Abs(nb - b); dd > maxDelta {
			maxDelta = dd
		}
		b = nb
		if maxDelta < tol {
			break
		}
	}
	return &Result{Weights: w, Intercept: b, Lambda: lambda, Iters: iters}
}

func softThreshold(x, t float64) float64 {
	switch {
	case x > t:
		return x - t
	case x < -t:
		return x + t
	default:
		return 0
	}
}

// Support returns the indices of nonzero weights, by descending |w|.
func (r *Result) Support() []int {
	var idx []int
	for j, wj := range r.Weights {
		if wj != 0 {
			idx = append(idx, j)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		wa, wb := math.Abs(r.Weights[idx[a]]), math.Abs(r.Weights[idx[b]])
		if wa != wb {
			return wa > wb
		}
		return idx[a] < idx[b]
	})
	return idx
}

// PathStats aggregates solver effort over one SelectK path search:
// the number of lambda fits the bisection ran and the total
// proximal-gradient (ISTA) iterations they consumed. Both engines run
// the same iterations, so the counts match between them. rcad surfaces
// the totals at /metrics and the benchmarks record them per stage.
type PathStats struct {
	Fits  int
	Iters int
}

// SelectK tunes lambda by bisection on the regularization path so that
// the fitted support has approximately k variables (the paper tunes to
// "about five"). It returns the selected indices ranked by |weight|,
// the final fit and the path statistics. If the support cannot be
// driven exactly to k (the path may jump, as in the GOFFGRATCH
// experiment where 10 variables come out) the closest achievable
// support with size >= k is returned. maxIter <= 0 selects 500.
//
// solver picks the engine each lambda is fitted with. SolverCD (the
// pipeline's engine) runs the coordinate-screened loop over a
// column-major copy of the design shared across the path; SolverISTA
// fits every lambda with the dense loop and is the differential
// oracle. Both fit every lambda from the zero iterate. The
// engines emit bit-identical iterates — ranked selections, tuned
// lambdas, fitted weights, intercepts and iteration counts all match
// (TestSolverCDBitIdentical and FuzzLassoSolvers pin this). Designs
// with non-finite features always take the dense loop: the CD
// recurrences assume finite Gram columns.
func SelectK(p Problem, k, maxIter int, solver Solver) ([]int, *Result, PathStats, error) {
	var st PathStats
	if k <= 0 {
		return nil, nil, st, errors.New("lasso: k must be positive")
	}
	if p.N == 0 || p.D == 0 || len(p.X) != p.N*p.D || len(p.Y) != p.N {
		return nil, nil, st, errors.New("lasso: bad problem shape")
	}
	// λ_max: smallest λ with empty support = max |Xᵀ(y - ȳ)| / n.
	z, _, _ := standardize(p.X, p.N, p.D)
	var ybar float64
	for _, yv := range p.Y {
		ybar += yv
	}
	ybar /= float64(p.N)
	lamMax := 0.0
	for j := 0; j < p.D; j++ {
		var s float64
		for i := 0; i < p.N; i++ {
			s += z[i*p.D+j] * (p.Y[i] - ybar)
		}
		s = math.Abs(s) / float64(p.N)
		if s > lamMax {
			lamMax = s
		}
	}
	if lamMax == 0 {
		lamMax = 1
	}
	if maxIter <= 0 {
		maxIter = 500
	}
	// The hoisted per-path state: finiteness and the Lipschitz step are
	// computed once here and shared by every probe.
	ds := newDesign(z, p.Y, p.N, p.D, false)
	lo, hi := lamMax*1e-4, lamMax
	var best *Result
	var bestSup []int
	bestGap := math.MaxInt32
	var cd *cdPath
	if solver == SolverCD && ds.finite {
		cd = newCDPath(ds)
	}
	for iter := 0; iter < 30; iter++ {
		mid := math.Sqrt(lo * hi) // geometric bisection
		var res *Result
		if cd != nil {
			res = cd.fit(mid, maxIter, 1e-7)
		} else {
			// The standardized design and the ISTA trajectory per lambda
			// are identical to a fresh Fit call; only the standardization
			// and the hoisted scans are shared across the path.
			res = fitDense(ds, mid, maxIter, 1e-7)
		}
		st.Fits++
		st.Iters += res.Iters
		// Each fit's support is computed (and sorted) once; the ranked
		// slice is reused for the gap comparisons and the final return.
		sup := res.Support()
		gap := len(sup) - k
		if gap < 0 {
			gap = -gap
		}
		// Prefer exact k; then the smallest overshoot; never settle for
		// an undershoot if an overshoot was seen (paper keeps >= k).
		better := false
		switch {
		case best == nil:
			better = true
		case len(sup) == k:
			better = true
		case len(bestSup) < k && len(sup) > len(bestSup):
			better = true
		case len(sup) >= k && gap < bestGap:
			better = true
		}
		if better {
			best = res
			bestSup = sup
			bestGap = gap
		}
		if len(sup) == k {
			break
		}
		if len(sup) > k {
			lo = mid // need more penalty
		} else {
			hi = mid
		}
	}
	return bestSup, best, st, nil
}
