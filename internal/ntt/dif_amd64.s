//go:build !purego

#include "textflag.h"

// Eight DIF butterflies or field products per iteration, one Goldilocks
// element per qword lane of a zmm register. Only AVX-512F instructions
// are used. Inputs are canonical, and every stored lane is canonical:
// CANON takes the final step of reduce128 that the poseidon kernels,
// whose lanes may hold any representative, leave out.
//
// Register roles:
//   Z0-Z4    operands and results
//   Z15-Z20  T0-T5, multiply and reduce temporaries
//   Z31      epsilon = 2^32 - 1 = 2^64 mod p
//   K7       0x5555: the low dword of every qword

// BEGIN lane arithmetic. Copied from internal/poseidon/x8_amd64.s;
// TestLaneMacrosMatch fails if the two blocks differ.
#define EPS Z31
#define T0 Z15
#define T1 Z16
#define T2 Z17
#define T3 Z18
#define T4 Z19
#define T5 Z20

// REDUCE sets D to a lane congruent to hi·2^64 + lo, as reduce128 does:
// 2^64 = epsilon and 2^96 = -1 (mod p). Clobbers hi, lo, T0, K1.
#define REDUCE(hi, lo, D) \
	VPSRLQ   $32, hi, T0;     \
	VPCMPUQ  $1, T0, lo, K1;  \
	VPSUBQ   T0, lo, lo;      \
	VPSUBQ   EPS, lo, K1, lo; \
	VPMULUDQ EPS, hi, hi;     \
	VPADDQ   hi, lo, D;       \
	VPCMPUQ  $1, hi, D, K1;   \
	VPADDQ   EPS, D, K1, D

// PROD assembles the 128-bit product from its four 32x32 partial
// products ll, lh, hl, hh without carries: mid = lh + ll>>32 and
// mid2 = hl + mid&epsilon both fit in 64 bits. It leaves the high word
// in hh and the low word in hl; mid names the register for mid, which
// may be lh. Clobbers mid and T0.
#define PROD(ll, lh, hl, hh, mid) \
	VPSRLQ    $32, ll, T0;    \
	VPADDQ    T0, lh, mid;    \
	VPANDQ    EPS, mid, T0;   \
	VPADDQ    T0, hl, hl;     \
	VPSRLQ    $32, mid, mid;  \
	VPADDQ    mid, hh, hh;    \
	VPSRLQ    $32, hl, T0;    \
	VPADDQ    T0, hh, hh;     \
	VPSLLQ    $32, hl, hl;    \
	VPBLENDMD ll, hl, K7, hl

// MUL sets D = a·b. D may be a or b. Clobbers T0-T5, K1.
#define MUL(a, b, D) \
	VPSRLQ   $32, a, T0;         \
	VPSRLQ   $32, b, T1;         \
	VPMULUDQ b, a, T2;           \
	VPMULUDQ T1, a, T3;          \
	VPMULUDQ b, T0, T4;          \
	VPMULUDQ T1, T0, T5;         \
	PROD(T2, T3, T4, T5, T3);    \
	REDUCE(T5, T4, D)
// END lane arithmetic.

// CANON maps a lane below 2^64 to its canonical value below p: x + epsilon
// wraps exactly when x >= p, and then the wrapped sum x - p is the
// smaller of the two. Clobbers T0.
#define CANON(x) \
	VPADDQ  EPS, x, T0; \
	VPMINUQ T0, x, x

// SETUP loads the constants every kernel needs.
#define SETUP \
	MOVQ         $0xffffffff, AX; \
	VPBROADCASTQ AX, EPS;         \
	MOVL         $0x5555, AX;     \
	KMOVW        AX, K7

// func butterfliesAVX512(x, y, w *field.Element, n int)
//
// For j < n, a multiple of 8: x[j], y[j] = x[j]+y[j], (x[j]-y[j])·w[j].
TEXT ·butterfliesAVX512(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ n+24(FP), CX
	SETUP

butterfly:
	VMOVDQU64 (DI), Z0
	VMOVDQU64 (SI), Z1
	VMOVDQU64 (DX), Z2

	// a + b: on a carry the wrapped sum plus epsilon is below p.
	VPADDQ  Z1, Z0, Z3
	VPCMPUQ $1, Z0, Z3, K1
	VPADDQ  EPS, Z3, K1, Z3
	CANON(Z3)

	// a - b: on a borrow, subtracting epsilon from the wrapped
	// difference adds p.
	VPCMPUQ $1, Z1, Z0, K2
	VPSUBQ  Z1, Z0, Z4
	VPSUBQ  EPS, Z4, K2, Z4
	MUL(Z4, Z2, Z4)
	CANON(Z4)

	VMOVDQU64 Z3, (DI)
	VMOVDQU64 Z4, (SI)
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, DX
	SUBQ $8, CX
	JNZ  butterfly
	VZEROUPPER
	RET

// func mulAVX512(x, w *field.Element, n int)
//
// For j < n, a multiple of 8: x[j] = x[j]·w[j].
TEXT ·mulAVX512(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ w+8(FP), DX
	MOVQ n+16(FP), CX
	SETUP

mul:
	VMOVDQU64 (DI), Z0
	VMOVDQU64 (DX), Z2
	MUL(Z0, Z2, Z0)
	CANON(Z0)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, CX
	JNZ  mul
	VZEROUPPER
	RET

// func mulConstAVX512(x *field.Element, c field.Element, n int)
//
// For j < n, a multiple of 8: x[j] = x[j]·c.
TEXT ·mulConstAVX512(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ n+16(FP), CX
	SETUP
	VPBROADCASTQ c+8(FP), Z2

mulconst:
	VMOVDQU64 (DI), Z0
	MUL(Z0, Z2, Z0)
	CANON(Z0)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ  mulconst
	VZEROUPPER
	RET
