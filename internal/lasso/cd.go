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
// every bisection probe: the hoisted design scans, the shared
// pure-intercept prefix cache, and the column l2 norms the screening
// bound consumes — all lambda-independent, paid once per path.
type cdPath struct {
	ds      *design
	pc      *pathCache
	colNorm []float64 // ‖z_j‖₂, the Cauchy–Schwarz column factors

	// Scratch reused across probes (the path runs on one goroutine).
	grad    []float64 // full-gradient scratch for refresh passes
	gradRef []float64 // full gradient at the last refresh
	budget  []float64 // per-screened-coordinate drift allowance
	r, rref []float64 // residuals: current iterate / last refresh
	live    []int     // coordinates whose gradient is tracked exactly
	state   []int8    // cdScreened / cdLive per coordinate

	// Packed panels: gathering strided z columns per row is what ate
	// the screening win, so the live columns are copied into a
	// contiguous n×|live| panel at each refresh (lz, accumulating into
	// lg), and the active columns into n×|nzCols| (az, with weights
	// packed into aw each iteration) whenever the support set changes.
	// Packing changes neither the multiplicands nor the accumulation
	// order, so every emitted float is unchanged.
	lz, lg []float64
	az, aw []float64
	nzCols []int
}

const (
	cdScreened int8 = iota
	cdLive
)

func newCDPath(ds *design) *cdPath {
	c := &cdPath{
		ds:      ds,
		pc:      newPathCache(ds),
		colNorm: make([]float64, ds.d),
		grad:    make([]float64, ds.d),
		gradRef: make([]float64, ds.d),
		budget:  make([]float64, ds.d),
		r:       make([]float64, ds.n),
		rref:    make([]float64, ds.n),
		live:    make([]int, 0, ds.d),
		state:   make([]int8, ds.d),
		lz:      make([]float64, 0, ds.n*ds.d),
		lg:      make([]float64, 0, ds.d),
		az:      make([]float64, 0, ds.n*ds.d),
		aw:      make([]float64, 0, ds.d),
		nzCols:  make([]int, 0, ds.d),
	}
	for i := 0; i < ds.n; i++ {
		row := ds.z[i*ds.d : (i+1)*ds.d]
		for j, v := range row {
			c.colNorm[j] += v * v
		}
	}
	for j, s := range c.colNorm {
		c.colNorm[j] = math.Sqrt(s)
	}
	return c
}

// fit runs one lambda's cold-equivalent fit: the shared prefix
// fast-forward, then the screened tail loop.
func (c *cdPath) fit(lambda float64, maxIter int, tol float64) *Result {
	res, w, nb, t := c.pc.prefix(lambda, maxIter, tol)
	if res != nil {
		return res
	}
	return c.screenedFrom(lambda, maxIter, tol, w, nb, t+1)
}

// screenThreshold is the inactivity certificate for coordinate j: a
// zero weight's proximal update softThreshold(−step·grad_j/n, step·λ)
// is exactly zero whenever |grad_j| ≤ n·λ (the float expression is a
// monotone image of that comparison). The screen certifies the real
// quantity with margin to spare for the float error of an O(n)
// gradient accumulation, so the certified float update is zero too.
func screenSafety(n int, lambda float64) float64 {
	return 1e-9*float64(n)*lambda + 1e-10*float64(n)
}

// refresh recomputes the exact full gradient from the stored residuals
// (bit-identical to the dense loop: each grad[j] accumulates resid·z
// in row order, an independent accumulator per column), then rebuilds
// the screen: every zero-weight coordinate with slack against n·λ is
// screened with a drift budget of slack/‖z_j‖; active and
// near-threshold coordinates stay live. Returns the minimum budget —
// the residual-drift radius within which every screened certificate
// remains valid.
func (c *cdPath) refresh(w []float64, lambda float64) (ddrLimit float64) {
	ds := c.ds
	n, d := ds.n, ds.d
	for j := 0; j < d; j++ {
		c.grad[j] = 0
	}
	for i := 0; i < n; i++ {
		resid := c.r[i]
		row := ds.z[i*d : (i+1)*d]
		gr := c.grad
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
	}
	copy(c.gradRef, c.grad)
	copy(c.rref, c.r)

	nLam := float64(n) * lambda
	safety := screenSafety(n, lambda)
	ddrLimit = math.Inf(1)
	c.live = c.live[:0]
	for j := 0; j < d; j++ {
		if w[j] == 0 {
			slack := nLam - math.Abs(c.gradRef[j]) - safety
			if slack > 0 && c.colNorm[j] > 0 {
				c.state[j] = cdScreened
				c.budget[j] = slack / c.colNorm[j]
				if c.budget[j] < ddrLimit {
					ddrLimit = c.budget[j]
				}
				continue
			}
		}
		c.state[j] = cdLive
		c.live = append(c.live, j)
	}

	// Pack the live columns into a contiguous panel and seed the packed
	// gradient accumulators with the exact entries just computed.
	nl := len(c.live)
	c.lz = c.lz[:n*nl]
	c.lg = c.lg[:nl]
	for jj, j := range c.live {
		c.lg[jj] = c.grad[j]
	}
	for i := 0; i < n; i++ {
		row := ds.z[i*d : (i+1)*d]
		lrow := c.lz[i*nl : i*nl+nl]
		for jj, j := range c.live {
			lrow[jj] = row[j]
		}
	}
	return ddrLimit
}

// screenedFrom is the screened engine's tail loop. Its emitted floats
// — dots, sigmoids, residuals, live gradient entries, the proximal
// updates and the convergence test — are computed by exactly the
// expressions fitDense uses, in the same order; the only difference is
// that screened coordinates' gradient entries are never accumulated
// and their (provably zero) updates never applied. The screen is
// maintained conservatively on the side: per iteration one O(n)
// residual-drift norm against the refresh point, and a full refresh
// whenever the smallest budget is exceeded.
func (c *cdPath) screenedFrom(lambda float64, maxIter int, tol float64, w []float64, b float64, start int) *Result {
	ds := c.ds
	z, y, n, d := ds.z, ds.y, ds.n, ds.d
	step, inv := ds.step, ds.inv
	nz := make([]int, 0, d)
	ddrLimit := -1.0 // force a refresh on the first iteration
	var iters int
	for iters = start; iters < maxIter; iters++ {
		// Active-set maintenance: the packed dot panel is rebuilt only
		// when the support set changes (rare between consecutive
		// iterations); the packed weights track every iteration.
		nz = nz[:0]
		for j, wj := range w {
			if wj != 0 {
				nz = append(nz, j)
			}
		}
		sparse := len(nz)*2 < d
		na := len(nz)
		if sparse {
			if !intsEqual(nz, c.nzCols) {
				c.nzCols = append(c.nzCols[:0], nz...)
				c.az = c.az[:n*na]
				for jj, j := range nz {
					for i := 0; i < n; i++ {
						c.az[i*na+jj] = z[i*d+j]
					}
				}
			}
			c.aw = c.aw[:na]
			for jj, j := range nz {
				c.aw[jj] = w[j]
			}
		}

		// Residual pass: identical to the dense loop's per-row dot,
		// deduplicated sigmoid and residual arithmetic, with the live
		// coordinates' gradient entries accumulated in the same row
		// order the dense loop uses (each is an independent
		// accumulator, so restricting the column set reorders nothing,
		// and the packed panels change neither multiplicands nor
		// order). Residuals are stored for a possible refresh; the
		// drift norm against the refresh point rides the same pass.
		nl := len(c.live)
		lg := c.lg
		for jj := range lg {
			lg[jj] = 0
		}
		var gradB, drift float64
		lastDot := math.NaN()
		var lastSig float64
		for i := 0; i < n; i++ {
			var dot float64
			if sparse {
				arow := c.az[i*na : i*na+na]
				for jj, v := range arow {
					dot += c.aw[jj] * v
				}
			} else {
				row := z[i*d : (i+1)*d]
				wr := w
				if len(wr) > len(row) {
					wr = wr[:len(row)]
				}
				for j, wv := range wr {
					dot += wv * row[j]
				}
			}
			dot += b
			sig := lastSig
			if dot != lastDot {
				sig = sigmoid(dot)
				lastDot, lastSig = dot, sig
			}
			resid := sig - y[i]
			c.r[i] = resid
			dr := resid - c.rref[i]
			drift += dr * dr
			lrow := c.lz[i*nl : i*nl+nl]
			for jj, v := range lrow {
				lg[jj] += resid * v
			}
			gradB += resid
		}

		// Screen maintenance: the certificates cover any iterate whose
		// residual drift from the refresh point stays inside the
		// smallest budget (Cauchy–Schwarz: |Δgrad_j| ≤ ‖Δr‖·‖z_j‖).
		// The drift norm is measured conservatively; past the limit the
		// refresh recomputes every gradient entry exactly — the full
		// KKT pass that keeps screening safe. A refresh recomputes the
		// live entries too, to the same bits the fused pass just
		// produced.
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
		// contributes nothing to the iterate or to maxDelta.
		var maxDelta float64
		for jj, j := range c.live {
			nw := softThreshold(w[j]-step*c.lg[jj]*inv, step*lambda)
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

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
