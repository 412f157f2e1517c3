package lasso

import "math"

// Solver selects the engine SelectK fits each lambda with. Both
// engines compute the exact same proximal-gradient iterate sequence —
// fitted weights, supports and iteration counts are bit-identical —
// but the coordinate-screened engine (SolverCD, the default) certifies
// most inactive coordinates as inert and skips their per-iteration
// gradient work, where the dense reference engine (SolverISTA) pays
// the full O(n·d) accumulation every iteration.
type Solver int

const (
	// SolverCD is the coordinate-screened descent engine (the pipeline
	// default). It runs the same fixed-step proximal descent as the
	// ISTA oracle, organized around per-coordinate screening: cached
	// column norms plus a Cauchy–Schwarz bound on the residual drift
	// since the last full gradient certify that a zero coordinate's
	// proximal update stays exactly zero, so its gradient entry need
	// not be computed at all. When the drift budget is exhausted, a
	// full-gradient refresh — a complete KKT pass over every
	// coordinate — re-certifies the screen. Skipped work is provably a
	// no-op, so the emitted iterates are bit-identical to the dense
	// loop's.
	SolverCD Solver = iota
	// SolverISTA is the dense fixed-step proximal-gradient engine,
	// fitting every lambda from the zero iterate — the original solver,
	// retained as the differential reference oracle.
	SolverISTA
)

// cdPath is the per-SelectK state the screened engine shares across
// every bisection probe: a column-major copy of the standardized
// design and the column l2 norms the screening bound consumes — both
// lambda-independent, paid once per path.
type cdPath struct {
	ds *design
	// zT[j*stride+i] = z[i*d+j], with stride = n rounded up to a
	// multiple of four and zero rows past n, so the packed row pass
	// reads whole four-row groups of every column. Every pass over the
	// design walks one column at a time: the row pass adds w_j·zT_j
	// into per-row accumulators, and each gradient entry is one
	// contiguous dot of the residuals with zT_j. Per accumulator the
	// multiplicands and the order (rows ascending, columns ascending)
	// are fitDense's, so the layout changes no emitted float.
	zT      []float64
	stride  int
	colNorm []float64 // ‖z_j‖₂, the Cauchy–Schwarz column factors

	// Scratch reused across probes (the path runs on one goroutine).
	t, sig   []float64 // per row: dot + b and its sigmoid (stride long)
	cols     []int     // support columns ascending, as offsets j*stride into zT
	ws       []float64 // their weights
	grad     []float64 // exact gradient: live entries every iteration, all at a refresh
	r, rref  []float64 // residuals: current iterate / last refresh
	live     []int     // coordinates whose gradient is tracked exactly
	screened []int     // the rest, certified inert since the last refresh
}

func newCDPath(ds *design) *cdPath {
	n, d := ds.n, ds.d
	stride := (n + 3) &^ 3
	c := &cdPath{
		ds:       ds,
		zT:       make([]float64, stride*d),
		stride:   stride,
		colNorm:  make([]float64, d),
		t:        make([]float64, stride),
		sig:      make([]float64, stride),
		cols:     make([]int, 0, d),
		ws:       make([]float64, 0, d),
		grad:     make([]float64, d),
		r:        make([]float64, n),
		rref:     make([]float64, n),
		live:     make([]int, 0, d),
		screened: make([]int, 0, d),
	}
	for j := 0; j < d; j++ {
		col := c.zT[j*stride : j*stride+n]
		var s float64
		for i := range col {
			col[i] = ds.z[i*d+j]
			s += col[i] * col[i]
		}
		c.colNorm[j] = math.Sqrt(s)
	}
	return c
}

// screenSafety is the float margin on the inactivity certificate for
// coordinate j: a zero weight's proximal update
// softThreshold(−step·grad_j/n, step·λ) is exactly zero whenever
// |grad_j| ≤ n·λ (the float expression is a monotone image of that
// comparison). The screen certifies the real quantity with margin to
// spare for the float error of an O(n) gradient accumulation, so the
// certified float update is zero too.
func screenSafety(n int, lambda float64) float64 {
	return 1e-9*float64(n)*lambda + 1e-10*float64(n)
}

// gradCols sets grad[j] = Σ_i r[i]·z_ij for every j in cols: each
// entry is an independent accumulator summed in row order, exactly as
// fitDense's per-row update builds it. Four columns run side by side
// so their add chains overlap; that reorders nothing within a column.
func (c *cdPath) gradCols(cols []int) {
	r, stride := c.r, c.stride
	k := 0
	for ; k+4 <= len(cols); k += 4 {
		z0 := c.zT[cols[k]*stride:][:len(r)]
		z1 := c.zT[cols[k+1]*stride:][:len(r)]
		z2 := c.zT[cols[k+2]*stride:][:len(r)]
		z3 := c.zT[cols[k+3]*stride:][:len(r)]
		var g0, g1, g2, g3 float64
		for i, ri := range r {
			g0 += ri * z0[i]
			g1 += ri * z1[i]
			g2 += ri * z2[i]
			g3 += ri * z3[i]
		}
		c.grad[cols[k]], c.grad[cols[k+1]], c.grad[cols[k+2]], c.grad[cols[k+3]] = g0, g1, g2, g3
	}
	for ; k < len(cols); k++ {
		zj := c.zT[cols[k]*stride:][:len(r)]
		var g float64
		for i, ri := range r {
			g += ri * zj[i]
		}
		c.grad[cols[k]] = g
	}
}

// refresh completes the exact gradient — the live entries were just
// produced by the iteration's own pass, so only the screened columns
// are computed — and rebuilds the screen from it: every zero-weight
// coordinate with slack against n·λ is screened with a drift budget of
// slack/‖z_j‖; active and near-threshold coordinates stay live.
// Returns the minimum budget — the residual-drift radius within which
// every screened certificate remains valid.
func (c *cdPath) refresh(w []float64, lambda float64) (ddrLimit float64) {
	c.gradCols(c.screened)
	copy(c.rref, c.r)

	nLam := float64(c.ds.n) * lambda
	safety := screenSafety(c.ds.n, lambda)
	ddrLimit = math.Inf(1)
	c.live, c.screened = c.live[:0], c.screened[:0]
	for j, wj := range w {
		if wj == 0 {
			slack := nLam - math.Abs(c.grad[j]) - safety
			if slack > 0 && c.colNorm[j] > 0 {
				c.screened = append(c.screened, j)
				ddrLimit = math.Min(ddrLimit, slack/c.colNorm[j])
				continue
			}
		}
		c.live = append(c.live, j)
	}
	return ddrLimit
}

// rowPass sets t[i] = Σ_{j∈S} w_j·z_ij + b and sig[i] = sigmoid(t[i])
// for every row, where S is the support in cols and ws: fitDense's
// sparse dot (support columns ascending, summed from +0) and its
// sigmoid. The packed kernel, where packedRowPass holds, takes rows
// four at a time up to the first group it cannot vouch for; the Go
// loops take the rest. Both emit the same floats.
func (c *cdPath) rowPass(b float64) {
	n := c.ds.n
	i0 := 0
	if packedRowPass {
		i0 = rowPassAVX2(c.zT, c.cols, c.ws, b, c.t, c.sig)
	}
	if i0 >= n {
		return
	}

	// Dots over rows i0..n-1. Columns go in pairs to halve the
	// accumulator traffic; Go sums left to right, so the order holds.
	t := c.t[i0:n]
	clear(t)
	k := 0
	for ; k+2 <= len(c.cols); k += 2 {
		w0, w1 := c.ws[k], c.ws[k+1]
		z0 := c.zT[c.cols[k]+i0:][:len(t)]
		z1 := c.zT[c.cols[k+1]+i0:][:len(t)]
		for i := range t {
			t[i] = t[i] + w0*z0[i] + w1*z1[i]
		}
	}
	for ; k < len(c.cols); k++ {
		wj := c.ws[k]
		zj := c.zT[c.cols[k]+i0:][:len(t)]
		for i, v := range zj {
			t[i] += wj * v
		}
	}
	// Equal dots share one sigmoid, as in fitDense.
	lastT := math.NaN()
	var lastSig float64
	for i := range t {
		t[i] += b
		if t[i] != lastT {
			lastT, lastSig = t[i], sigmoid(t[i])
		}
		c.sig[i0+i] = lastSig
	}
}

// fit runs one lambda from the zero iterate. Its emitted floats — dots,
// sigmoids, residuals, live gradient entries, the proximal updates and
// the convergence test — are computed by exactly the expressions
// fitDense uses (or, in the packed row pass, by instructions that
// round as they do), in the same order, with exact-zero weight terms
// skipped (exact on the finite designs this engine runs on); the only
// other difference is that screened coordinates' gradient entries are
// never accumulated and their (provably zero) updates never applied.
// The screen is maintained conservatively on the side: per iteration
// one O(n) residual-drift norm against the refresh point, and a full
// refresh whenever the smallest budget is exceeded.
func (c *cdPath) fit(lambda float64, maxIter int, tol float64) *Result {
	ds := c.ds
	y, n, d := ds.y, ds.n, ds.d
	step, inv := ds.step, ds.inv
	w := make([]float64, d)
	var b float64
	// Every coordinate starts screened with no budget, so the first
	// iteration's refresh computes the whole gradient.
	c.live, c.screened = c.live[:0], c.screened[:0]
	for j := 0; j < d; j++ {
		c.screened = append(c.screened, j)
	}
	c.cols, c.ws = c.cols[:0], c.ws[:0]
	ddrLimit := -1.0
	var iters int
	for iters = 0; iters < maxIter; iters++ {
		// Residuals, stored for the gradient passes; the drift norm
		// against the refresh point and the intercept gradient ride the
		// same pass, in row order.
		c.rowPass(b)
		var gradB, drift float64
		for i, sig := range c.sig[:n] {
			resid := sig - y[i]
			c.r[i] = resid
			dr := resid - c.rref[i]
			drift += dr * dr
			gradB += resid
		}
		c.gradCols(c.live)

		// Screen maintenance: the certificates cover any iterate whose
		// residual drift from the refresh point stays inside the
		// smallest budget (Cauchy–Schwarz: |Δgrad_j| ≤ ‖Δr‖·‖z_j‖).
		// The drift norm is measured conservatively; past the limit the
		// refresh completes the gradient exactly — the full KKT pass
		// that keeps screening safe.
		if ddrLimit >= 0 && !math.IsInf(ddrLimit, 1) {
			if math.Sqrt(drift)*(1+1e-9) >= ddrLimit {
				ddrLimit = -1
			}
		}
		if ddrLimit < 0 {
			ddrLimit = c.refresh(w, lambda)
		}

		// Proximal updates over the live coordinates only: a screened
		// coordinate's update is certified to be exactly zero, so it
		// contributes nothing to the iterate or to maxDelta. Every
		// nonzero weight is live and live is ascending, so the same
		// loop lists the next row pass's support.
		var maxDelta float64
		c.cols, c.ws = c.cols[:0], c.ws[:0]
		for _, j := range c.live {
			nw := softThreshold(w[j]-step*c.grad[j]*inv, step*lambda)
			if dd := math.Abs(nw - w[j]); dd > maxDelta {
				maxDelta = dd
			}
			w[j] = nw
			if nw != 0 {
				c.cols = append(c.cols, j*c.stride)
				c.ws = append(c.ws, nw)
			}
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
