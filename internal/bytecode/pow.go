//go:build !s390x

package bytecode

import "math"

// The kernels of `**` with a literal operand (opPowS and opPowV, e 3
// and 4) compute through this transcription of the toolchain's
// math.pow (src/math/pow.go), split in two. A per-literal prelude
// computes Log and Frexp of a literal base, or Modf of a literal
// exponent: once per kernel invocation for an exponent, and for a base
// only when it differs from the last one the VM saw (BatchVM.powBase).
// A per-element body finishes the computation with the same math.Exp,
// math.Log, math.Frexp and math.Ldexp calls in the same order, so every
// result is the float math.Pow returns. Operands that hit one of pow's
// special cases call math.Pow itself. TestPowLiteralMatchesMathPow pins
// the bit identity; a toolchain whose math.pow changes must fail it.
// On s390x math.Pow is assembly, and pow_s390x.go makes both forms
// call it.

// powLitBase computes math.Pow(c, y) for one literal base c.
type powLitBase struct {
	c    float64
	fast bool    // c is finite, positive and not 1
	logc float64 // math.Log(c)
	x1   float64 // math.Frexp(c)
	xe   int
}

func newPowLitBase(c float64) powLitBase {
	p := powLitBase{c: c}
	if c > 0 && c != 1 && c <= math.MaxFloat64 {
		p.fast = true
		p.logc = math.Log(c)
		p.x1, p.xe = math.Frexp(c)
	}
	return p
}

// pow returns math.Pow(p.c, y).
func (p *powLitBase) pow(y float64) float64 {
	// pow's special cases for a finite base > 0 and not 1: y is ±0, 1,
	// ±0.5, NaN or ±Inf.
	if !p.fast || y == 0 || y == 1 || y == 0.5 || y == -0.5 || !(math.Abs(y) <= math.MaxFloat64) {
		return math.Pow(p.c, y)
	}
	yi, yf := math.Modf(math.Abs(y))
	if yi >= 1<<63 {
		return math.Pow(p.c, y)
	}
	a1 := 1.0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * p.logc)
	}
	return powSquare(a1, p.x1, p.xe, int64(yi), y < 0)
}

// powLitExp computes math.Pow(x, c) for one literal exponent c.
type powLitExp struct {
	c    float64
	fast bool // c is finite, |c| < 2**63, and not ±0, ±0.5 or ±1
	yi   int64
	yf   float64 // Modf(|c|)'s fraction, moved into (-0.5, 0.5]
	neg  bool    // c < 0
}

func newPowLitExp(c float64) powLitExp {
	p := powLitExp{c: c}
	a := math.Abs(c)
	if a == 0 || a == 0.5 || a == 1 || !(a < 1<<63) {
		return p
	}
	yi, yf := math.Modf(a)
	if yf > 0.5 {
		yf--
		yi++
	}
	p.fast, p.yi, p.yf, p.neg = true, int64(yi), yf, c < 0
	return p
}

// pow returns math.Pow(x, p.c).
func (p *powLitExp) pow(x float64) float64 {
	// pow's special cases for an exponent the prelude accepts: x is ±0,
	// 1, NaN or ±Inf.
	if !p.fast || x == 0 || x == 1 || !(math.Abs(x) <= math.MaxFloat64) {
		return math.Pow(x, p.c)
	}
	if p.yf != 0 && x < 0 {
		return math.NaN()
	}
	a1 := 1.0
	if p.yf != 0 {
		a1 = math.Exp(p.yf * math.Log(x))
	}
	x1, xe := math.Frexp(x)
	return powSquare(a1, x1, xe, p.yi, p.neg)
}

// powSquare is the tail of math.pow: it multiplies a1 by x**yi, with
// x = x1 * 2**xe as Frexp splits it, by successive squarings of x1
// that accumulate powers of two in an exponent, inverts the result for
// a negative exponent and scales it by that exponent.
func powSquare(a1, x1 float64, xe int, yi int64, neg bool) float64 {
	ae := 0
	for i := yi; i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// The exponent already lies beyond a float64's, and the
			// loop would only push it further: Ldexp under- or
			// overflows.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		// math.pow writes x1 *= x1, and arm64 and ppc64le fuse it with
		// the doubling below. Both give the same float: the doubled
		// square is exact, and the product's rounding error is at most
		// a quarter ulp of it. The conversion keeps fmalint's rule.
		x1 = float64(x1 * x1)
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	if neg {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}
