package bytecode

import (
	"math"
	"math/rand"
	"testing"
)

// powSpecials are the operands math.pow treats apart, and their
// neighbours: signed zeros, infinities, NaN, subnormals, ±1, exponents
// ±0.5 and at or beyond 2**63, fractions above and below 0.5, and the
// extremes of the finite range.
var powSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), 1.5e-310, -2.5e-315,
	1, -1, 0.5, -0.5, 2, -2, 3, 4, -4, 7, -7, 10, 0.1, 1e-300, 1e300,
	1 << 53, 1<<53 + 2, 1 << 62, 1 << 63, -(1 << 63), 1 << 64, 1e19,
	0.75, -0.75, 1.75, -1.75, 2.6, -2.6, 2.4, -3.5, 0.25, 1e-20, 1 - 1e-16,
	1 + 1e-15, 1024, -1074, 1023.9, math.MaxFloat64, -math.MaxFloat64,
}

// powOperand draws an operand: a random bit pattern (40%), a uniform
// draw in ±20 or ±400 (20% each), a small integer (10%) or a special
// value (10%).
func powOperand(r *rand.Rand) float64 {
	switch k := r.Intn(10); {
	case k < 4:
		return math.Float64frombits(r.Uint64())
	case k < 6:
		return 40*r.Float64() - 20
	case k < 8:
		return 800*r.Float64() - 400
	case k < 9:
		return float64(r.Intn(129) - 64)
	default:
		return powSpecials[r.Intn(len(powSpecials))]
	}
}

// TestPowLiteralMatchesMathPow pins the literal-operand kernels' pow
// to math.Pow bit for bit: both forms, every pair of special values,
// then 10**7 random operand pairs per form (10**5 under -short).
func TestPowLiteralMatchesMathPow(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 100_000
	}
	bad := 0
	check := func(form string, x, y, got float64) {
		want := math.Pow(x, y)
		if math.Float64bits(got) == math.Float64bits(want) {
			return
		}
		bad++
		if bad <= 10 {
			t.Errorf("%s: pow(%v [%#016x], %v [%#016x]) = %v [%#016x]; math.Pow = %v [%#016x]", form,
				x, math.Float64bits(x), y, math.Float64bits(y),
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, c := range powSpecials {
		b, e := newPowLitBase(c), newPowLitExp(c)
		for _, v := range powSpecials {
			check("literal base", c, v, b.pow(v))
			check("literal exponent", v, c, e.pow(v))
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		c, v := powOperand(r), powOperand(r)
		b := newPowLitBase(c)
		check("literal base", c, v, b.pow(v))
		e := newPowLitExp(c)
		check("literal exponent", v, c, e.pow(v))
	}
	if bad > 0 {
		t.Fatalf("%d results differ from math.Pow", bad)
	}
}
