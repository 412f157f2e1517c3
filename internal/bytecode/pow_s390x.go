package bytecode

import "math"

// On s390x math.Pow is assembly (pow_s390x.s), which pow.go does not
// transcribe, so the literal-operand kernels call math.Pow itself.

type powLitBase struct{ c float64 }

func newPowLitBase(c float64) powLitBase { return powLitBase{c} }

func (p *powLitBase) pow(y float64) float64 { return math.Pow(p.c, y) }

type powLitExp struct{ c float64 }

func newPowLitExp(c float64) powLitExp { return powLitExp{c} }

func (p *powLitExp) pow(x float64) float64 { return math.Pow(x, p.c) }
