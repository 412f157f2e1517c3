// The exp sequence below is the avxfma block of the Go toolchain's
// src/math/exp_amd64.s (after Shibata, "Efficient evaluation methods of
// elementary functions suitable for SIMD computation", ISC'10), widened
// from one float64 in an XMM register to four in a YMM register,
// instruction for instruction and with the same constants. Only the
// finite, non-overflowing, non-denormal path is copied: the kernel
// returns before any lane that would leave it.

#include "textflag.h"

// Each constant is stored four times, one YMM register wide, so the
// packed instructions can read it from memory.
#define REP4(off, val) \
	DATA rowconst<>+(off)(SB)/8, val; \
	DATA rowconst<>+(off+8)(SB)/8, val; \
	DATA rowconst<>+(off+16)(SB)/8, val; \
	DATA rowconst<>+(off+24)(SB)/8, val

REP4(0, $1.4426950408889634073599246810018920)      // LOG2E
REP4(32, $0.69314718055966295651160180568695068359375) // LN2U
REP4(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
REP4(96, $0.0625)
REP4(128, $2.4801587301587301587e-5)
REP4(160, $1.9841269841269841270e-4)
REP4(192, $1.3888888888888888889e-3)
REP4(224, $8.3333333333333333333e-3)
REP4(256, $4.1666666666666666667e-2)
REP4(288, $1.6666666666666666667e-1)
REP4(320, $0.5)
REP4(352, $1.0)
REP4(384, $2.0)
REP4(416, $-700.0)               // the fallback threshold on -|t|
REP4(448, $0x8000000000000000)   // the sign bit
REP4(480, $0x3ff)                // the exponent bias
GLOBL rowconst<>(SB), RODATA, $512

#define LOG2E rowconst<>+0(SB)
#define LN2U rowconst<>+32(SB)
#define LN2L rowconst<>+64(SB)
#define SIXTEENTH rowconst<>+96(SB)
#define C64 rowconst<>+128(SB)
#define C56 rowconst<>+160(SB)
#define C48 rowconst<>+192(SB)
#define C40 rowconst<>+224(SB)
#define C32 rowconst<>+256(SB)
#define C24 rowconst<>+288(SB)
#define HALF rowconst<>+320(SB)
#define ONE rowconst<>+352(SB)
#define TWO rowconst<>+384(SB)
#define LIMIT rowconst<>+416(SB)
#define SIGN rowconst<>+448(SB)
#define BIAS rowconst<>+480(SB)

// func rowPassAVX2(zT []float64, cols []int, ws []float64, b float64, t, sig []float64) int
TEXT ·rowPassAVX2(SB), NOSPLIT, $0-136
	MOVQ         zT_base+0(FP), SI
	MOVQ         cols_base+24(FP), DI
	MOVQ         cols_len+32(FP), CX
	MOVQ         ws_base+48(FP), R8
	VBROADCASTSD b+72(FP), Y15
	MOVQ         t_base+80(FP), DX
	MOVQ         t_len+88(FP), BX
	MOVQ         sig_base+104(FP), R9
	ANDQ         $~3, BX
	SHLQ         $3, BX           // bytes in the whole groups of t
	VMOVUPD      SIGN, Y14
	VMOVUPD      LIMIT, Y13
	VMOVUPD      ONE, Y12
	VXORPD       Y11, Y11, Y11
	XORQ         AX, AX           // byte offset of the group's first row

group:
	CMPQ AX, BX
	JGE  done

	// Dots: acc = +0, then acc += w_k·zT[cols[k]+i] for k ascending,
	// a rounded product and a rounded sum as Go's MULSD and ADDSD.
	VXORPD Y0, Y0, Y0
	XORQ   R10, R10
	CMPQ   R10, CX
	JGE    dotted

dot:
	MOVQ         (DI)(R10*8), R11
	LEAQ         (SI)(R11*8), R11
	VBROADCASTSD (R8)(R10*8), Y1
	VMULPD       (R11)(AX*1), Y1, Y1
	VADDPD       Y1, Y0, Y0
	INCQ         R10
	CMPQ         R10, CX
	JLT          dot

dotted:
	VADDPD  Y15, Y0, Y0    // t = acc + b
	VMOVUPD Y0, (DX)(AX*1)

	// x = -|t|. A lane with x < -700 or x NaN goes to the Go loop.
	VORPD     Y14, Y0, Y2
	VCMPPD    $0x19, Y13, Y2, Y3 // NGE_UQ: !(x >= -700)
	VMOVMSKPD Y3, R12
	TESTQ     R12, R12
	JNZ       done

	// e = exp(x): archExp's avxfma block, X0 = Y2, X1 = Y4/Y6, BX = X5.
	VMULPD       LOG2E, Y2, Y4
	VCVTPD2DQY   Y4, X5
	VCVTDQ2PD    X5, Y4
	VFNMADD231PD LN2U, Y4, Y2
	VFNMADD231PD LN2L, Y4, Y2
	VMULPD       SIXTEENTH, Y2, Y2
	VMOVUPD      C64, Y6
	VFMADD213PD  C56, Y2, Y6
	VFMADD213PD  C48, Y2, Y6
	VFMADD213PD  C40, Y2, Y6
	VFMADD213PD  C32, Y2, Y6
	VFMADD213PD  C24, Y2, Y6
	VFMADD213PD  HALF, Y2, Y6
	VFMADD213PD  Y12, Y2, Y6
	VMULPD       Y6, Y2, Y2
	VADDPD       TWO, Y2, Y6
	VMULPD       Y6, Y2, Y2
	VADDPD       TWO, Y2, Y6
	VMULPD       Y6, Y2, Y2
	VADDPD       TWO, Y2, Y6
	VMULPD       Y6, Y2, Y2
	VADDPD       TWO, Y2, Y6
	VFMADD213PD  Y12, Y6, Y2

	// fr · 2**k, with k+1023 in [13, 1023] for x in [-700, 0].
	VPMOVSXDQ X5, Y7
	VPADDQ    BIAS, Y7, Y7
	VPSLLQ    $52, Y7, Y7
	VMULPD    Y7, Y2, Y2

	// sigmoid: 1/(1+e) where t >= 0, else e/(1+e).
	VCMPPD    $0x1d, Y11, Y0, Y3 // GE_OQ: t >= 0
	VBLENDVPD Y3, Y12, Y2, Y8
	VADDPD    Y12, Y2, Y9
	VDIVPD    Y9, Y8, Y8
	VMOVUPD   Y8, (R9)(AX*1)

	ADDQ $32, AX
	JMP  group

done:
	SHRQ       $3, AX
	MOVQ       AX, ret+128(FP)
	VZEROUPPER
	RET

// func cpuAVX2FMA() bool
TEXT ·cpuAVX2FMA(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no

	// Leaf 1 ECX: FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  no

	// XCR0: the OS saves XMM (bit 1) and YMM (bit 2) state.
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no

	// Leaf 7 EBX: AVX2 (bit 5).
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $0x20, BX
	JZ    no
	MOVB  $1, ret+0(FP)

no:
	RET
