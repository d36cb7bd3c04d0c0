//go:build !purego

#include "textflag.h"

// The eight-lane slice kernels behind vec.go: one Goldilocks element per
// qword lane of a zmm register, eight elements per iteration. Each runs
// the leading multiple of eight of len(dst) elements, or none without
// AVX-512F, and returns how many it ran. Only AVX-512F instructions are
// used, and none before the field.AVX512 check. Inputs are canonical,
// and every stored lane is canonical: CANON takes the final step of
// reduce128 that the poseidon kernels, whose lanes may hold any
// representative, leave out. Each iteration loads all its operands
// before it stores, so dst may be one of the operands.
//
// Register roles:
//   Z0-Z4    operands and results
//   Z15-Z20  T0-T5, multiply and reduce temporaries
//   Z31      epsilon = 2^32 - 1 = 2^64 mod p
//   K7       0x5555: the low dword of every qword
//   BX       the element index, CX the count

// BEGIN lane arithmetic. Shared with internal/poseidon/x8_amd64.s;
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

// ADD sets D = a + b, canonical. D may be b but not a. On a carry the
// wrapped sum plus epsilon is below p. Clobbers T0, K2.
#define ADD(a, b, D) \
	VPADDQ  b, a, D;       \
	VPCMPUQ $1, a, D, K2;  \
	VPADDQ  EPS, D, K2, D; \
	CANON(D)

// SUB sets D = a - b, canonical. D may be a or b. On a borrow,
// subtracting epsilon from the wrapped difference adds p. Clobbers K2.
#define SUB(a, b, D) \
	VPCMPUQ $1, b, a, K2; \
	VPSUBQ  b, a, D;      \
	VPSUBQ  EPS, D, K2, D

// MULC sets D = a·b, canonical. D may be a or b. Clobbers T0-T5, K1.
#define MULC(a, b, D) \
	MUL(a, b, D); \
	CANON(D)

// LANES sets CX to n rounded down to a multiple of eight, or to zero
// when field.AVX512 is false, and sets ZF when CX is zero.
#define LANES(n) \
	MOVQ    n, CX;           \
	ANDQ    $-8, CX;         \
	MOVBQZX ·AVX512(SB), AX; \
	NEGQ    AX;              \
	ANDQ    AX, CX

// SETUP loads the constants every kernel needs and zeroes the index.
#define SETUP \
	MOVQ         $0xffffffff, AX; \
	VPBROADCASTQ AX, EPS;         \
	MOVL         $0x5555, AX;     \
	KMOVW        AX, K7;          \
	XORQ         BX, BX

// NEXT advances the index by one iteration and loops to label while
// elements remain.
#define NEXT(label) \
	ADDQ $8, BX;   \
	CMPQ BX, CX;   \
	JLT  label;    \
	VZEROUPPER

// func addVecX8(dst, a, b []Element) int
TEXT ·addVecX8(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	LANES(dst_len+8(FP))
	JZ   done
	SETUP

add:
	VMOVDQU64 (SI)(BX*8), Z0
	VMOVDQU64 (DX)(BX*8), Z1
	ADD(Z0, Z1, Z1)
	VMOVDQU64 Z1, (DI)(BX*8)
	NEXT(add)

done:
	MOVQ CX, ret+72(FP)
	RET

// func subVecX8(dst, a, b []Element) int
TEXT ·subVecX8(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	LANES(dst_len+8(FP))
	JZ   done
	SETUP

sub:
	VMOVDQU64 (SI)(BX*8), Z0
	VMOVDQU64 (DX)(BX*8), Z1
	SUB(Z0, Z1, Z1)
	VMOVDQU64 Z1, (DI)(BX*8)
	NEXT(sub)

done:
	MOVQ CX, ret+72(FP)
	RET

// func mulVecX8(dst, a, b []Element) int
TEXT ·mulVecX8(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	LANES(dst_len+8(FP))
	JZ   done
	SETUP

mul:
	VMOVDQU64 (SI)(BX*8), Z0
	VMOVDQU64 (DX)(BX*8), Z1
	MULC(Z0, Z1, Z1)
	VMOVDQU64 Z1, (DI)(BX*8)
	NEXT(mul)

done:
	MOVQ CX, ret+72(FP)
	RET

// func mulAddVecX8(dst, a, b, c []Element) int
TEXT ·mulAddVecX8(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ c_base+72(FP), R8
	LANES(dst_len+8(FP))
	JZ   done
	SETUP

muladd:
	VMOVDQU64 (SI)(BX*8), Z0
	VMOVDQU64 (DX)(BX*8), Z1
	VMOVDQU64 (R8)(BX*8), Z2
	MULC(Z0, Z1, Z1)
	ADD(Z1, Z2, Z2)
	VMOVDQU64 Z2, (DI)(BX*8)
	NEXT(muladd)

done:
	MOVQ CX, ret+96(FP)
	RET

// func scaleVecX8(dst []Element, c Element, a []Element) int
TEXT ·scaleVecX8(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+32(FP), SI
	LANES(dst_len+8(FP))
	JZ   done
	SETUP
	VPBROADCASTQ c+24(FP), Z2

scale:
	VMOVDQU64 (SI)(BX*8), Z0
	MULC(Z0, Z2, Z0)
	VMOVDQU64 Z0, (DI)(BX*8)
	NEXT(scale)

done:
	MOVQ CX, ret+56(FP)
	RET

// func scaleAddVecX8(dst []Element, c Element, a []Element) int
TEXT ·scaleAddVecX8(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+32(FP), SI
	LANES(dst_len+8(FP))
	JZ   done
	SETUP
	VPBROADCASTQ c+24(FP), Z2

scaleadd:
	VMOVDQU64 (SI)(BX*8), Z0
	VMOVDQU64 (DI)(BX*8), Z1
	MULC(Z0, Z2, Z0)
	ADD(Z0, Z1, Z1)
	VMOVDQU64 Z1, (DI)(BX*8)
	NEXT(scaleadd)

done:
	MOVQ CX, ret+56(FP)
	RET

// func butterflyVecX8(x, y, w []Element) int
TEXT ·butterflyVecX8(SB), NOSPLIT, $0-80
	MOVQ x_base+0(FP), DI
	MOVQ y_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	LANES(x_len+8(FP))
	JZ   done
	SETUP

butterfly:
	VMOVDQU64 (DI)(BX*8), Z0
	VMOVDQU64 (SI)(BX*8), Z1
	VMOVDQU64 (DX)(BX*8), Z2
	ADD(Z0, Z1, Z3)
	SUB(Z0, Z1, Z4)
	MULC(Z4, Z2, Z4)
	VMOVDQU64 Z3, (DI)(BX*8)
	VMOVDQU64 Z4, (SI)(BX*8)
	NEXT(butterfly)

done:
	MOVQ CX, ret+72(FP)
	RET

// TRANSPOSE8 transposes the 8x8 qword matrix whose rows are r0..r7 into
// columns c0..c7: lane j of ci is lane i of rj. It unpacks qword pairs
// within 128-bit lanes, then gathers 128-bit lanes twice; r0..r7 are
// clobbered.
#define TRANSPOSE8(r0, r1, r2, r3, r4, r5, r6, r7, c0, c1, c2, c3, c4, c5, c6, c7) \
	VPUNPCKLQDQ r1, r0, c0;         \
	VPUNPCKHQDQ r1, r0, c1;         \
	VPUNPCKLQDQ r3, r2, c2;         \
	VPUNPCKHQDQ r3, r2, c3;         \
	VPUNPCKLQDQ r5, r4, c4;         \
	VPUNPCKHQDQ r5, r4, c5;         \
	VPUNPCKLQDQ r7, r6, c6;         \
	VPUNPCKHQDQ r7, r6, c7;         \
	VSHUFI64X2  $0x88, c2, c0, r0;  \
	VSHUFI64X2  $0xdd, c2, c0, r1;  \
	VSHUFI64X2  $0x88, c3, c1, r2;  \
	VSHUFI64X2  $0xdd, c3, c1, r3;  \
	VSHUFI64X2  $0x88, c6, c4, r4;  \
	VSHUFI64X2  $0xdd, c6, c4, r5;  \
	VSHUFI64X2  $0x88, c7, c5, r6;  \
	VSHUFI64X2  $0xdd, c7, c5, r7;  \
	VSHUFI64X2  $0x88, r4, r0, c0;  \
	VSHUFI64X2  $0xdd, r4, r0, c4;  \
	VSHUFI64X2  $0x88, r5, r1, c2;  \
	VSHUFI64X2  $0xdd, r5, r1, c6;  \
	VSHUFI64X2  $0x88, r6, r2, c1;  \
	VSHUFI64X2  $0xdd, r6, r2, c5;  \
	VSHUFI64X2  $0x88, r7, r3, c3;  \
	VSHUFI64X2  $0xdd, r7, r3, c7

// func dif8VecX8(data []Element, w1, w2, w3 Element) int
//
// Each iteration loads eight blocks of eight as the rows Z0-Z7,
// transposes them so that Z8-Z14, Z25 hold element k of every block,
// runs the three layers on the eight blocks at once with the broadcast
// twiddles Z21-Z23 (w2 is also the span-4 root), and transposes back.
TEXT ·dif8VecX8(SB), NOSPLIT, $0-56
	MOVQ    data_base+0(FP), DI
	MOVQ    data_len+8(FP), CX
	ANDQ    $-64, CX
	MOVBQZX ·AVX512(SB), AX
	NEGQ    AX
	ANDQ    AX, CX
	JZ      done
	SETUP
	VPBROADCASTQ w1+24(FP), Z21
	VPBROADCASTQ w2+32(FP), Z22
	VPBROADCASTQ w3+40(FP), Z23

dif8:
	VMOVDQU64 (DI)(BX*8), Z0
	VMOVDQU64 64(DI)(BX*8), Z1
	VMOVDQU64 128(DI)(BX*8), Z2
	VMOVDQU64 192(DI)(BX*8), Z3
	VMOVDQU64 256(DI)(BX*8), Z4
	VMOVDQU64 320(DI)(BX*8), Z5
	VMOVDQU64 384(DI)(BX*8), Z6
	VMOVDQU64 448(DI)(BX*8), Z7
	TRANSPOSE8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z25)

	// Span 8: a_k = x_k + x_{k+4} in Z0-Z3, b_k = (x_k - x_{k+4})·w^k
	// in Z4-Z7.
	ADD(Z8, Z12, Z0)
	SUB(Z8, Z12, Z4)
	ADD(Z9, Z13, Z1)
	SUB(Z9, Z13, Z5)
	MULC(Z5, Z21, Z5)
	ADD(Z10, Z14, Z2)
	SUB(Z10, Z14, Z6)
	MULC(Z6, Z22, Z6)
	ADD(Z11, Z25, Z3)
	SUB(Z11, Z25, Z7)
	MULC(Z7, Z23, Z7)

	// Span 4: c in Z8-Z11 from a, d in Z12-Z14, Z25 from b.
	ADD(Z0, Z2, Z8)
	SUB(Z0, Z2, Z10)
	ADD(Z1, Z3, Z9)
	SUB(Z1, Z3, Z11)
	MULC(Z11, Z22, Z11)
	ADD(Z4, Z6, Z12)
	SUB(Z4, Z6, Z14)
	ADD(Z5, Z7, Z13)
	SUB(Z5, Z7, Z25)
	MULC(Z25, Z22, Z25)

	// Span 2.
	ADD(Z8, Z9, Z0)
	SUB(Z8, Z9, Z1)
	ADD(Z10, Z11, Z2)
	SUB(Z10, Z11, Z3)
	ADD(Z12, Z13, Z4)
	SUB(Z12, Z13, Z5)
	ADD(Z14, Z25, Z6)
	SUB(Z14, Z25, Z7)

	TRANSPOSE8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z25)
	VMOVDQU64 Z8, (DI)(BX*8)
	VMOVDQU64 Z9, 64(DI)(BX*8)
	VMOVDQU64 Z10, 128(DI)(BX*8)
	VMOVDQU64 Z11, 192(DI)(BX*8)
	VMOVDQU64 Z12, 256(DI)(BX*8)
	VMOVDQU64 Z13, 320(DI)(BX*8)
	VMOVDQU64 Z14, 384(DI)(BX*8)
	VMOVDQU64 Z25, 448(DI)(BX*8)
	ADDQ $64, BX
	CMPQ BX, CX
	JLT  dif8
	VZEROUPPER

done:
	MOVQ CX, ret+48(FP)
	RET
