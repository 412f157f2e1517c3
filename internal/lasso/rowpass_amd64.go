package lasso

import "math"

// packedRowPass gates rowPassAVX2. It holds only where the kernel's
// floats are the Go loop's: the CPU and OS run AVX2 and FMA, and
// math.Exp itself takes exp_amd64.s's FMA block, whose rounding the
// kernel copies. The probe argument is one whose exponential differs
// in the last bit between that block and the SSE2 one, so a runtime
// that turned FMA off (GODEBUG=cpu.fma=off) closes the gate.
var packedRowPass = cpuAVX2FMA() &&
	math.Float64bits(math.Exp(35.389241745700474)) == 0x4320a1c6131c8c21

// rowPassAVX2 runs the row pass over whole groups of four rows of t:
// for row i, t[i] = (Σ_k ws[k]·zT[cols[k]+i]) + b, summed in k order
// from +0, and sig[i] = sigmoid(t[i]). It stops at the first group
// with a row where −|t| < −700 or t is NaN, and returns the number of
// rows it finished: a multiple of four. Every zT[cols[k]+i] it reads
// must be in range for i < len(t) rounded down to a multiple of four,
// and len(sig) ≥ len(t).
//
//go:noescape
func rowPassAVX2(zT []float64, cols []int, ws []float64, b float64, t, sig []float64) int

// cpuAVX2FMA reports whether CPUID shows AVX2 and FMA and XGETBV shows
// that the OS saves YMM state.
func cpuAVX2FMA() bool
