//go:build !purego

#include "textflag.h"
#include "go_asm.h"

// Eight Poseidon permutations at once, in structure-of-arrays form: zmm
// register Zi holds lane i of all eight states. The rounds are those of
// permuteLanes (full rounds, pre-partial round, sparse partial rounds,
// full rounds) on the same "any uint64 representative" lane contract,
// with the constants read from x8Table through R8, which walks the
// table in round order. Only AVX-512F instructions are used.
//
// Register roles:
//   Z0-Z11   the state
//   Z12-Z14  S-box powers; dot-product temporaries
//   Z15-Z20  T0-T5, multiply and reduce temporaries
//   Z21      high halves of lane 0 (partial rounds)
//   Z22      a dot product's result
//   Z23-Z28  dot-product accumulators
//   Z12-Z23  high halves of the state, Z24-Z28 sums and temporaries
//            (MDS layer only)
//   Z30      all ones
//   Z31      epsilon = 2^32 - 1 = 2^64 mod p
//   K7       0x5555: the low dword of every qword
//
// A 64x64-bit product is four VPMULUDQ (32x32 -> 64) on the 32-bit
// halves, and each carry or borrow is a VPCMPUQ mask feeding a masked
// add or subtract of epsilon.

#define ONES Z30
#define P2 Z12
#define P3 Z13
#define P4 Z14
#define S0H Z21
#define DOT Z22
#define W0 Z23
#define H0 Z24
#define W1 Z25
#define H1 Z26
#define W2 Z27
#define H2 Z28
#define TP Z12
#define TQ Z13
#define XH Z14

// BEGIN lane arithmetic. internal/ntt/dif_amd64.s carries a copy of
// this block; TestLaneMacrosMatch in internal/ntt fails if they differ.
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

// SQR sets D = a·a, sharing the cross product. Clobbers T0-T5, K1.
#define SQR(a, D) \
	VPSRLQ   $32, a, T1;         \
	VPMULUDQ a, a, T2;           \
	VPMULUDQ T1, a, T4;          \
	VPMULUDQ T1, T1, T5;         \
	PROD(T2, T4, T4, T5, T3);    \
	REDUCE(T5, T4, D)

// SBOX sets x = x^7.
#define SBOX(x) \
	SQR(x, P2);     \
	MUL(P2, x, P3); \
	SQR(P2, P4);    \
	MUL(P4, P3, x)

// ADDC adds the canonical constant at off(R8) to every state of lane x,
// as addLane does.
#define ADDC(x, off) \
	VPADDQ.BCST  off(R8), x, x;        \
	VPCMPUQ.BCST $1, off(R8), x, K1;   \
	VPADDQ       EPS, x, K1, x

#define FULL(x, off) \
	ADDC(x, off); \
	SBOX(x)

// MDSTERM adds entry off(R9) times the low (l) and high (h) halves of one
// input lane to the row's two sums. The entries are at most 25, so the
// sums stay below 2^41.
#define MDSTERM(off, l, h) \
	VPMULUDQ.BCST off(R9), l, Z26; \
	VPADDQ        Z26, Z24, Z24;   \
	VPMULUDQ.BCST off(R9), h, Z27; \
	VPADDQ        Z27, Z25, Z25

// ZERODOT clears the dot-product accumulators.
#define ZERODOT \
	VPXORQ W0, W0, W0; \
	VPXORQ H0, H0, H0; \
	VPXORQ W1, W1, W1; \
	VPXORQ H1, H1, H1; \
	VPXORQ W2, W2, W2; \
	VPXORQ H2, H2, H2

// TERM accumulates c·x for lane x and the constant c whose 32-bit halves
// are at off(R8) and off+8(R8). The partial products ll, lh+hl and hh
// weigh 2^0, 2^32 and 2^64; each is summed whole into W (wrapping) and
// by its high half into H, so W - H<<32 recovers the exact sum of low
// halves later. Twelve terms keep every exact sum below 2^64.
#define TERM(off, x) \
	VPSRLQ        $32, x, XH;         \
	VPMULUDQ.BCST off(R8), x, TP;     \
	VPMULUDQ.BCST off+8(R8), XH, TQ;  \
	VPADDQ        TP, W0, W0;         \
	VPSRLQ        $32, TP, TP;        \
	VPADDQ        TP, H0, H0;         \
	VPADDQ        TQ, W2, W2;         \
	VPSRLQ        $32, TQ, TQ;        \
	VPADDQ        TQ, H2, H2;         \
	VPMULUDQ.BCST off(R8), XH, TP;    \
	VPMULUDQ.BCST off+8(R8), x, TQ;   \
	VPADDQ        TP, W1, W1;         \
	VPSRLQ        $32, TP, TP;        \
	VPADDQ        TP, H1, H1;         \
	VPADDQ        TQ, W1, W1;         \
	VPSRLQ        $32, TQ, TQ;        \
	VPADDQ        TQ, H1, H1

// COMBINE reduces the accumulators to one lane D. With L = W - H<<32 the
// exact low-half sums, the dot product is
//   L0 + (H0+L1)·2^32 + (H1+L2)·2^64 + H2·2^96
// = lo + hi·2^64 - H2 (mod p), where A = H0 + L1 + L0>>32,
// lo = A<<32 | L0&epsilon and hi = A>>32 + H1 + L2. H2 < 2^36, so a
// borrow leaves at least 2^64 - 2^36 and subtracting epsilon cannot
// underflow. Clobbers the accumulators, T0, T1, K1.
#define COMBINE(D) \
	VPSLLQ    $32, H0, T1;    \
	VPSUBQ    T1, W0, W0;     \
	VPSLLQ    $32, H1, T1;    \
	VPSUBQ    T1, W1, W1;     \
	VPSLLQ    $32, H2, T1;    \
	VPSUBQ    T1, W2, W2;     \
	VPADDQ    W1, H0, H0;     \
	VPADDQ    W2, H1, H1;     \
	VPSRLQ    $32, W0, T1;    \
	VPADDQ    T1, H0, H0;     \
	VPSLLQ    $32, H0, T1;    \
	VPBLENDMD W0, T1, K7, T1; \
	VPSRLQ    $32, H0, H0;    \
	VPADDQ    H1, H0, H0;     \
	REDUCE(H0, T1, D);        \
	VPCMPUQ   $1, H2, D, K1;  \
	VPSUBQ    H2, D, D;       \
	VPSUBQ    EPS, D, K1, D

// MULADD sets x = x + c·s0 for the constant c whose halves are at off(R8)
// and off+8(R8), with s0 in Z0 and its high halves in S0H: one 128-bit
// product, x added into the low word, one reduction. hi ≤ 2^64 - 2, so
// the carry into it cannot overflow. Clobbers T0-T5, K1.
#define MULADD(x, off) \
	VPMULUDQ.BCST off(R8), Z0, T2;    \
	VPMULUDQ.BCST off(R8), S0H, T3;   \
	VPMULUDQ.BCST off+8(R8), Z0, T4;  \
	VPMULUDQ.BCST off+8(R8), S0H, T5; \
	PROD(T2, T3, T4, T5, T3);         \
	VPADDQ        x, T4, T4;          \
	VPCMPUQ       $1, x, T4, K1;      \
	VPSUBQ        ONES, T5, K1, T5;   \
	REDUCE(T5, T4, x)

// func permuteX8AVX512(x *lanesX8)
//
// The frame holds the twelve rows a matrix layer writes before they
// replace the state.
TEXT ·permuteX8AVX512(SB), NOSPLIT, $768-8
	MOVQ x+0(FP), DI
	LEAQ ·x8Table(SB), R8
	LEAQ const_x8MDSOffset(R8), R11

	MOVQ         $0xffffffff, AX
	VPBROADCASTQ AX, EPS
	VPTERNLOGD   $0xff, ONES, ONES, ONES
	MOVL         $0x5555, AX
	KMOVW        AX, K7

	VMOVDQU64 0(DI), Z0
	VMOVDQU64 64(DI), Z1
	VMOVDQU64 128(DI), Z2
	VMOVDQU64 192(DI), Z3
	VMOVDQU64 256(DI), Z4
	VMOVDQU64 320(DI), Z5
	VMOVDQU64 384(DI), Z6
	VMOVDQU64 448(DI), Z7
	VMOVDQU64 512(DI), Z8
	VMOVDQU64 576(DI), Z9
	VMOVDQU64 640(DI), Z10
	VMOVDQU64 704(DI), Z11

	XORQ BX, BX // 0 for the first half of the full rounds, 1 for the second
	MOVQ $const_HalfFullRounds, CX

full:
	FULL(Z0, 0)
	FULL(Z1, 8)
	FULL(Z2, 16)
	FULL(Z3, 24)
	FULL(Z4, 32)
	FULL(Z5, 40)
	FULL(Z6, 48)
	FULL(Z7, 56)
	FULL(Z8, 64)
	FULL(Z9, 72)
	FULL(Z10, 80)
	FULL(Z11, 88)

	// MDS layer: the limb split of mdsLayer, one row per iteration with
	// the row's entries at R9, each row reduced once (mdsRow).
	VPSRLQ $32, Z0, Z12
	VPSRLQ $32, Z1, Z13
	VPSRLQ $32, Z2, Z14
	VPSRLQ $32, Z3, Z15
	VPSRLQ $32, Z4, Z16
	VPSRLQ $32, Z5, Z17
	VPSRLQ $32, Z6, Z18
	VPSRLQ $32, Z7, Z19
	VPSRLQ $32, Z8, Z20
	VPSRLQ $32, Z9, Z21
	VPSRLQ $32, Z10, Z22
	VPSRLQ $32, Z11, Z23
	MOVQ   R11, R9
	MOVQ   SP, R10
	MOVQ   $const_Width, DX

mdsrow:
	VPMULUDQ.BCST 0(R9), Z0, Z24
	VPMULUDQ.BCST 0(R9), Z12, Z25
	MDSTERM(8, Z1, Z13)
	MDSTERM(16, Z2, Z14)
	MDSTERM(24, Z3, Z15)
	MDSTERM(32, Z4, Z16)
	MDSTERM(40, Z5, Z17)
	MDSTERM(48, Z6, Z18)
	MDSTERM(56, Z7, Z19)
	MDSTERM(64, Z8, Z20)
	MDSTERM(72, Z9, Z21)
	MDSTERM(80, Z10, Z22)
	MDSTERM(88, Z11, Z23)

	// sl + sh·2^32 with sl, sh < 2^41: low = sl + sh<<32 and
	// hi = sh>>32, then low + hi·epsilon. At most one of the two adds
	// carries, and either wrap leaves room for epsilon.
	VPSLLQ   $32, Z25, Z26
	VPADDQ   Z26, Z24, Z26
	VPCMPUQ  $1, Z24, Z26, K1
	VPSRLQ   $32, Z25, Z25
	VPMULUDQ EPS, Z25, Z25
	VPADDQ   Z25, Z26, Z28
	VPCMPUQ  $1, Z25, Z28, K2
	VPADDQ   EPS, Z28, K1, Z28
	VPADDQ   EPS, Z28, K2, Z28
	VMOVDQU64 Z28, (R10)

	ADDQ $(8*const_Width), R9
	ADDQ $64, R10
	DECQ DX
	JNZ  mdsrow

	VMOVDQU64 0(SP), Z0
	VMOVDQU64 64(SP), Z1
	VMOVDQU64 128(SP), Z2
	VMOVDQU64 192(SP), Z3
	VMOVDQU64 256(SP), Z4
	VMOVDQU64 320(SP), Z5
	VMOVDQU64 384(SP), Z6
	VMOVDQU64 448(SP), Z7
	VMOVDQU64 512(SP), Z8
	VMOVDQU64 576(SP), Z9
	VMOVDQU64 640(SP), Z10
	VMOVDQU64 704(SP), Z11

	ADDQ $(8*const_Width), R8
	DECQ CX
	JNZ  full
	TESTQ BX, BX
	JNZ   done
	MOVQ  $1, BX

	// Pre-partial round: the first constant vector, then the dense
	// 11x11 block of the initial matrix, one row per iteration.
	ADDC(Z0, 0)
	ADDC(Z1, 8)
	ADDC(Z2, 16)
	ADDC(Z3, 24)
	ADDC(Z4, 32)
	ADDC(Z5, 40)
	ADDC(Z6, 48)
	ADDC(Z7, 56)
	ADDC(Z8, 64)
	ADDC(Z9, 72)
	ADDC(Z10, 80)
	ADDC(Z11, 88)
	ADDQ $(8*const_Width), R8
	MOVQ SP, R10
	MOVQ $(const_Width-1), DX

prerow:
	ZERODOT
	TERM(0, Z1)
	TERM(16, Z2)
	TERM(32, Z3)
	TERM(48, Z4)
	TERM(64, Z5)
	TERM(80, Z6)
	TERM(96, Z7)
	TERM(112, Z8)
	TERM(128, Z9)
	TERM(144, Z10)
	TERM(160, Z11)
	COMBINE(DOT)
	VMOVDQU64 DOT, (R10)
	ADDQ $(16*(const_Width-1)), R8
	ADDQ $64, R10
	DECQ DX
	JNZ  prerow

	VMOVDQU64 0(SP), Z1
	VMOVDQU64 64(SP), Z2
	VMOVDQU64 128(SP), Z3
	VMOVDQU64 192(SP), Z4
	VMOVDQU64 256(SP), Z5
	VMOVDQU64 320(SP), Z6
	VMOVDQU64 384(SP), Z7
	VMOVDQU64 448(SP), Z8
	VMOVDQU64 512(SP), Z9
	VMOVDQU64 576(SP), Z10
	VMOVDQU64 640(SP), Z11

	// Partial rounds: S-box and scalar constant on lane 0, then the
	// sparse matrix: lane 0 becomes M00·s0 + Row·s[1:], and each other
	// lane i gains Col[i-1]·s0. The record is the scalar constant, M00,
	// Row and Col.
	MOVQ $const_PartialRounds, CX

partial:
	SBOX(Z0)
	ADDC(Z0, 0)
	ZERODOT
	TERM(8, Z0)
	TERM(24, Z1)
	TERM(40, Z2)
	TERM(56, Z3)
	TERM(72, Z4)
	TERM(88, Z5)
	TERM(104, Z6)
	TERM(120, Z7)
	TERM(136, Z8)
	TERM(152, Z9)
	TERM(168, Z10)
	TERM(184, Z11)
	COMBINE(DOT)
	VPSRLQ $32, Z0, S0H
	MULADD(Z1, 200)
	MULADD(Z2, 216)
	MULADD(Z3, 232)
	MULADD(Z4, 248)
	MULADD(Z5, 264)
	MULADD(Z6, 280)
	MULADD(Z7, 296)
	MULADD(Z8, 312)
	MULADD(Z9, 328)
	MULADD(Z10, 344)
	MULADD(Z11, 360)
	VMOVDQA64 DOT, Z0
	ADDQ $(8*const_x8PartialLen), R8
	DECQ CX
	JNZ  partial

	MOVQ $const_HalfFullRounds, CX
	JMP  full

done:
	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	VMOVDQU64 Z5, 320(DI)
	VMOVDQU64 Z6, 384(DI)
	VMOVDQU64 Z7, 448(DI)
	VMOVDQU64 Z8, 512(DI)
	VMOVDQU64 Z9, 576(DI)
	VMOVDQU64 Z10, 640(DI)
	VMOVDQU64 Z11, 704(DI)
	VZEROUPPER
	RET
