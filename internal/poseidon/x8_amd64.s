//go:build !purego

#include "textflag.h"
#include "go_asm.h"

// Eight Poseidon permutations at once, in structure-of-arrays form: zmm
// register Zi holds lane i of all eight states. The rounds are those of
// PermuteNaive (full rounds, textbook partial rounds, full rounds) on the
// "any uint64 representative" lane contract of permuteLanes, with the
// constants read from x8Table through R8, which walks the table in round
// order. Only AVX-512F instructions are used.
//
// Register roles:
//   Z0-Z11   the state; low 32-bit limbs and rows in the MDS layer
//   Z12-Z14  S-box powers
//   Z15-Z20  T0-T5, multiply and reduce temporaries
//   Z12-Z23  high 32-bit limbs and rows (MDS layer only)
//   Z24-Z29  convolution temporaries (MDS layer only)
//   Z30      eight times the first limb, the diagonal (MDS layer only)
//   Z31      epsilon = 2^32 - 1 = 2^64 mod p
//   K7       0x5555: the low dword of every qword
//
// A 64x64-bit product is four VPMULUDQ (32x32 -> 64) on the 32-bit
// halves, and each carry or borrow is a VPCMPUQ mask feeding a masked
// add or subtract of epsilon. The MDS layer multiplies nothing but its
// twelve reductions.

#define P2 Z12
#define P3 Z13
#define P4 Z14
#define DIAG Z30
#define CA Z24
#define CB Z25
#define CC Z26
#define CD Z27
#define CE Z28
#define CF Z29

// BEGIN lane arithmetic. internal/field/vec_amd64.s carries a copy of
// this block; TestLaneMacrosMatch in internal/field fails if they differ.
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

// The MDS layer is the limb split of mdsLayer, with each 12-point
// circulant product of limbs computed exactly in the frequency domain,
// as plonky2's mds_multiply_freq does: a 4-point real FFT over each of
// the blocks (0,3,6,9), (1,4,7,10) and (2,5,8,11), then the products by
// the circulant's spectrum, three-point cyclic products whose constants
// are small signed powers of two (the 1/4 of the inverse transforms
// folded in), then the inverse FFTs. All of it is adds, subtracts and
// shifts on signed 64-bit integers: limbs below 2^32 keep every
// intermediate below 2^41 in magnitude, and the outputs are the exact
// non-negative row sums, below 264·2^32 < 2^41.

// FFT4 transforms (x0, x1, x2, x3) in place into x0 = y2, x1 = y0,
// x2 = r and x3 = n, where the spectrum is y0, y1 = (r, -n), y2.
// Clobbers CF.
#define FFT4(x0, x1, x2, x3) \
	VPADDQ x2, x0, CF; \
	VPSUBQ x2, x0, x2; \
	VPADDQ x3, x1, x0; \
	VPSUBQ x3, x1, x3; \
	VPADDQ x0, CF, x1; \
	VPSUBQ x0, CF, x0

// IFFT4 is the inverse transform of the spectrum y0, y1 = (re, im) and
// y2 = -neg, written to d0..d3. d0 and d1 must hold none of the inputs;
// d3 must not be re.
#define IFFT4(y0, neg, re, im, d0, d1, d2, d3) \
	VPSUBQ neg, y0, d0; \
	VPADDQ neg, y0, d1; \
	VPADDQ im, d1, d3;  \
	VPSUBQ im, d1, d1;  \
	VPSUBQ re, d0, d2;  \
	VPADDQ re, d0, d0

// CONV multiplies the limbs a0..a11 in place by the MDS circulant,
// without the diagonal. After the FFTs, a6..a8 and a9..a11 hold the
// complex bins (r, n) of the three blocks. Their products by the
// spectrum [(2,-1), (-4,1), (16,1)] land in CA..CE and a8; the real bins
// y0, in a3..a5, are multiplied by [16, 32, 16] into a6, a7, a11; and
// the real bins y2, in a0..a2, by [-1, -8, 2], negated, into a9, a10,
// a3. Clobbers CA-CF.
#define CONV(a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11) \
	FFT4(a0, a3, a6, a9);  \
	FFT4(a1, a4, a7, a10); \
	FFT4(a2, a5, a8, a11); \
	/* 2r0 - n0 + r1 - 16n1 + r2 + 4n2 */ \
	VPSLLQ $1, a6, CA;     \
	VPSUBQ a9, CA, CA;     \
	VPADDQ a7, CA, CA;     \
	VPSLLQ $4, a10, CF;    \
	VPSUBQ CF, CA, CA;     \
	VPADDQ a8, CA, CA;     \
	VPSLLQ $2, a11, CF;    \
	VPADDQ CF, CA, CA;     \
	/* -r0 - 2n0 - 16r1 - n1 + 4r2 - n2 */ \
	VPSLLQ $2, a8, CB;     \
	VPSUBQ a6, CB, CB;     \
	VPSLLQ $1, a9, CF;     \
	VPSUBQ CF, CB, CB;     \
	VPSLLQ $4, a7, CF;     \
	VPSUBQ CF, CB, CB;     \
	VPSUBQ a10, CB, CB;    \
	VPSUBQ a11, CB, CB;    \
	/* -4r0 + n0 + 2r1 - n1 + r2 - 16n2 */ \
	VPSLLQ $1, a7, CC;     \
	VPADDQ a9, CC, CC;     \
	VPSLLQ $2, a6, CF;     \
	VPSUBQ CF, CC, CC;     \
	VPSUBQ a10, CC, CC;    \
	VPADDQ a8, CC, CC;     \
	VPSLLQ $4, a11, CF;    \
	VPSUBQ CF, CC, CC;     \
	/* r0 + 4n0 - r1 - 2n1 - 16r2 - n2 */ \
	VPSLLQ $2, a9, CD;     \
	VPADDQ a6, CD, CD;     \
	VPSUBQ a7, CD, CD;     \
	VPSLLQ $1, a10, CF;    \
	VPSUBQ CF, CD, CD;     \
	VPSLLQ $4, a8, CF;     \
	VPSUBQ CF, CD, CD;     \
	VPSUBQ a11, CD, CD;    \
	/* 16r0 + n0 - 4r1 + n1 + 2r2 - n2 */ \
	VPSLLQ $4, a6, CE;     \
	VPADDQ a9, CE, CE;     \
	VPSLLQ $2, a7, CF;     \
	VPSUBQ CF, CE, CE;     \
	VPADDQ a10, CE, CE;    \
	VPSLLQ $1, a8, CF;     \
	VPADDQ CF, CE, CE;     \
	VPSUBQ a11, CE, CE;    \
	/* r0 - 16n0 + r1 + 4n1 - r2 - 2n2 */ \
	VPSUBQ a8, a6, a8;     \
	VPADDQ a7, a8, a8;     \
	VPSLLQ $4, a9, CF;     \
	VPSUBQ CF, a8, a8;     \
	VPSLLQ $2, a10, CF;    \
	VPADDQ CF, a8, a8;     \
	VPSLLQ $1, a11, CF;    \
	VPSUBQ CF, a8, a8;     \
	/* 16(S + y0_2), 16(S + y0_0), 16(S + y0_1) with S the sum */ \
	VPADDQ a4, a3, CF;     \
	VPADDQ a5, CF, CF;     \
	VPADDQ a5, CF, a6;     \
	VPSLLQ $4, a6, a6;     \
	VPADDQ a3, CF, a7;     \
	VPSLLQ $4, a7, a7;     \
	VPADDQ a4, CF, a11;    \
	VPSLLQ $4, a11, a11;   \
	/* y2_0 + 2y2_1 - 8y2_2, 8y2_0 + y2_1 + 2y2_2, -2y2_0 + 8y2_1 + y2_2 */ \
	VPSLLQ $1, a1, a9;     \
	VPADDQ a0, a9, a9;     \
	VPSLLQ $3, a2, CF;     \
	VPSUBQ CF, a9, a9;     \
	VPSLLQ $3, a0, a10;    \
	VPADDQ a1, a10, a10;   \
	VPSLLQ $1, a2, CF;     \
	VPADDQ CF, a10, a10;   \
	VPSLLQ $3, a1, a3;     \
	VPADDQ a2, a3, a3;     \
	VPSLLQ $1, a0, CF;     \
	VPSUBQ CF, a3, a3;     \
	IFFT4(a11, a3, CE, a8, a2, a5, a8, a11); \
	IFFT4(a6, a9, CA, CB, a0, a3, a6, a9);   \
	IFFT4(a7, a10, CC, CD, a1, a4, a7, a10)

// JOIN sets l to a lane congruent to l + h·2^32 for l, h < 2^41: first
// l += (h>>32)·epsilon, which stays below 2^42, then l += h<<32, whose
// wrap leaves less than 2^42, room for the epsilon it owes. Clobbers h,
// CA, K1.
#define JOIN(l, h) \
	VPSRLQ   $32, h, CA;     \
	VPMULUDQ EPS, CA, CA;    \
	VPADDQ   CA, l, l;       \
	VPSLLQ   $32, h, h;      \
	VPADDQ   h, l, l;        \
	VPCMPUQ  $1, h, l, K1;   \
	VPADDQ   EPS, l, K1, l

// MDS multiplies the state Z0-Z11 by the MDS matrix: the circulant on
// the high and the low limbs, the diagonal 8·s0 added to row 0 of both,
// and each row's limbs joined. Clobbers Z12-Z30, K1.
#define MDS \
	VPSRLQ $32, Z0, Z12;  \
	VPSRLQ $32, Z1, Z13;  \
	VPSRLQ $32, Z2, Z14;  \
	VPSRLQ $32, Z3, Z15;  \
	VPSRLQ $32, Z4, Z16;  \
	VPSRLQ $32, Z5, Z17;  \
	VPSRLQ $32, Z6, Z18;  \
	VPSRLQ $32, Z7, Z19;  \
	VPSRLQ $32, Z8, Z20;  \
	VPSRLQ $32, Z9, Z21;  \
	VPSRLQ $32, Z10, Z22; \
	VPSRLQ $32, Z11, Z23; \
	VPSLLQ $3, Z12, DIAG; \
	CONV(Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23); \
	VPADDQ DIAG, Z12, Z12; \
	VPANDQ EPS, Z0, Z0;   \
	VPANDQ EPS, Z1, Z1;   \
	VPANDQ EPS, Z2, Z2;   \
	VPANDQ EPS, Z3, Z3;   \
	VPANDQ EPS, Z4, Z4;   \
	VPANDQ EPS, Z5, Z5;   \
	VPANDQ EPS, Z6, Z6;   \
	VPANDQ EPS, Z7, Z7;   \
	VPANDQ EPS, Z8, Z8;   \
	VPANDQ EPS, Z9, Z9;   \
	VPANDQ EPS, Z10, Z10; \
	VPANDQ EPS, Z11, Z11; \
	VPSLLQ $3, Z0, DIAG;  \
	CONV(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11); \
	VPADDQ DIAG, Z0, Z0;  \
	JOIN(Z0, Z12);        \
	JOIN(Z1, Z13);        \
	JOIN(Z2, Z14);        \
	JOIN(Z3, Z15);        \
	JOIN(Z4, Z16);        \
	JOIN(Z5, Z17);        \
	JOIN(Z6, Z18);        \
	JOIN(Z7, Z19);        \
	JOIN(Z8, Z20);        \
	JOIN(Z9, Z21);        \
	JOIN(Z10, Z22);       \
	JOIN(Z11, Z23)

#define LOAD \
	VMOVDQU64 0(DI), Z0;    \
	VMOVDQU64 64(DI), Z1;   \
	VMOVDQU64 128(DI), Z2;  \
	VMOVDQU64 192(DI), Z3;  \
	VMOVDQU64 256(DI), Z4;  \
	VMOVDQU64 320(DI), Z5;  \
	VMOVDQU64 384(DI), Z6;  \
	VMOVDQU64 448(DI), Z7;  \
	VMOVDQU64 512(DI), Z8;  \
	VMOVDQU64 576(DI), Z9;  \
	VMOVDQU64 640(DI), Z10; \
	VMOVDQU64 704(DI), Z11

#define STORE \
	VMOVDQU64 Z0, 0(DI);    \
	VMOVDQU64 Z1, 64(DI);   \
	VMOVDQU64 Z2, 128(DI);  \
	VMOVDQU64 Z3, 192(DI);  \
	VMOVDQU64 Z4, 256(DI);  \
	VMOVDQU64 Z5, 320(DI);  \
	VMOVDQU64 Z6, 384(DI);  \
	VMOVDQU64 Z7, 448(DI);  \
	VMOVDQU64 Z8, 512(DI);  \
	VMOVDQU64 Z9, 576(DI);  \
	VMOVDQU64 Z10, 640(DI); \
	VMOVDQU64 Z11, 704(DI)

#define SETEPS \
	MOVQ         $0xffffffff, AX; \
	VPBROADCASTQ AX, EPS

// func permuteX8AVX512(x *lanesX8)
TEXT ·permuteX8AVX512(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), DI
	LEAQ ·x8Table(SB), R8
	SETEPS
	MOVL  $0x5555, AX
	KMOVW AX, K7
	LOAD

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
	MDS
	ADDQ $(8*const_Width), R8
	DECQ CX
	JNZ  full
	TESTQ BX, BX
	JNZ   done
	MOVQ  $1, BX

	// Partial rounds: lane 0's constant (the other lanes' are folded
	// forward into later constants by initX8), S-box on lane 0, MDS.
	MOVQ $const_PartialRounds, CX

partial:
	ADDC(Z0, 0)
	SBOX(Z0)
	MDS
	ADDQ $8, R8
	DECQ CX
	JNZ  partial

	MOVQ $const_HalfFullRounds, CX
	JMP  full

done:
	STORE
	VZEROUPPER
	RET

// func mdsX8AVX512(x *lanesX8)
TEXT ·mdsX8AVX512(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), DI
	SETEPS
	LOAD
	MDS
	STORE
	VZEROUPPER
	RET

// One Poseidon permutation, the sequential sponges' kernel (the
// transcript, TwoToOne, HashNoPad and the batch tails; UniZK spreads one
// permutation over a 12x3 PE region for these, Fig. 5b). Lanes 0-7 of the
// state live in S0, lanes 8-11 in the low half of S8; the high half of S8
// is never stored. It runs the rounds and walks x8Table exactly as
// permuteX8AVX512 does. The S-boxes of the full rounds run on S0 and S8,
// the lane-0 S-box of the partial rounds in scalar MULQ arithmetic: the
// vector S-box on S0 measured 2.55 µs a permutation against the scalar
// one's 2.05 µs (2-core AVX-512 Xeon), its three dependent products each
// a long chain of vector ops.
//
// The MDS layer works by columns: lane c broadcast to every position
// (VPERMQ), its two 32-bit limbs multiplied by column c of the matrix
// (read from mdsCols through R9; the diagonal is in column 0), the eight
// and four rows of each limb summed in ALO/AHI and BLO/BHI, and each
// row's limbs joined as in the batched kernel. The limb sums stay below
// 264·2^32 < 2^41, JOIN's bound. In a partial round the columns of lanes
// 1-11 are summed while the scalar S-box runs, and lane 0's column last.
//
// Register roles:
//   Z0, Z1    S0, S8: the state
//   Z2-Z9     IDX0-IDX7: VPERMQ indices broadcasting lane k
//   Z10, Z11  BC, BH: the broadcast lane and its high limb
//   Z12-Z20   S-box powers and T0-T5, as in the batched kernel
//   Z21-Z23, Z25  ALO, AHI, BLO, BHI: the limb row sums
//   Z24       CA, JOIN's temporary
//   Z26, Z27  PA, PB: limb products
//   Z30       S8's round constants
//   Z31       EPS
//   K3        0x0f: S8's lanes in memory
//   AX, DX, R10-R13  the scalar S-box

#define S0 Z0
#define S8 Z1
#define IDX0 Z2
#define IDX1 Z3
#define IDX2 Z4
#define IDX3 Z5
#define IDX4 Z6
#define IDX5 Z7
#define IDX6 Z8
#define IDX7 Z9
#define BC Z10
#define BH Z11
#define ALO Z21
#define AHI Z22
#define BLO Z23
#define BHI Z25
#define PA Z26
#define PB Z27

// COLSET sets the row sums to the column at off(R9) times the lane in
// BC; COL adds that product to them.
#define COLSET(off) \
	VPSRLQ   $32, BC, BH;       \
	VPMULUDQ off(R9), BC, ALO;  \
	VPMULUDQ off(R9), BH, AHI;  \
	VPMULUDQ off+64(R9), BC, BLO; \
	VPMULUDQ off+64(R9), BH, BHI

#define COL(off) \
	VPSRLQ   $32, BC, BH;       \
	VPMULUDQ off(R9), BC, PA;   \
	VPADDQ   PA, ALO, ALO;      \
	VPMULUDQ off(R9), BH, PB;   \
	VPADDQ   PB, AHI, AHI;      \
	VPMULUDQ off+64(R9), BC, PA; \
	VPADDQ   PA, BLO, BLO;      \
	VPMULUDQ off+64(R9), BH, PB; \
	VPADDQ   PB, BHI, BHI

// LANE adds the column of the lane src[idx], found at off(R9).
#define LANE(src, idx, off) \
	VPERMQ src, idx, BC; \
	COL(off)

// COLS2 adds the columns of lanes 2-11.
#define COLS2 \
	LANE(S0, IDX2, 256);  \
	LANE(S0, IDX3, 384);  \
	LANE(S0, IDX4, 512);  \
	LANE(S0, IDX5, 640);  \
	LANE(S0, IDX6, 768);  \
	LANE(S0, IDX7, 896);  \
	LANE(S8, IDX0, 1024); \
	LANE(S8, IDX1, 1152); \
	LANE(S8, IDX2, 1280); \
	LANE(S8, IDX3, 1408)

// JOINTO is JOIN with the result in D, which must not be h.
#define JOINTO(l, h, D) \
	VPSRLQ   $32, h, CA;     \
	VPMULUDQ EPS, CA, CA;    \
	VPADDQ   CA, l, l;       \
	VPSLLQ   $32, h, h;      \
	VPADDQ   h, l, D;        \
	VPCMPUQ  $1, h, D, K1;   \
	VPADDQ   EPS, D, K1, D

#define JOINS \
	JOINTO(ALO, AHI, S0); \
	JOINTO(BLO, BHI, S8)

// SMDS multiplies the state by the MDS matrix.
#define SMDS \
	VPERMQ S0, IDX0, BC;  \
	COLSET(0);            \
	LANE(S0, IDX1, 128);  \
	COLS2;                \
	JOINS

// SSETUP loads EPS, K3, K7, IDX0-IDX7 and the state from (DI).
// Clobbers AX.
#define SSETUP \
	SETEPS;                  \
	MOVL  $0x5555, AX;       \
	KMOVW AX, K7;            \
	MOVL  $0x0f, AX;         \
	KMOVW AX, K3;            \
	VPXORQ IDX0, IDX0, IDX0; \
	MOVQ  $1, AX;            \
	VPBROADCASTQ AX, IDX1;   \
	MOVQ  $2, AX;            \
	VPBROADCASTQ AX, IDX2;   \
	MOVQ  $3, AX;            \
	VPBROADCASTQ AX, IDX3;   \
	MOVQ  $4, AX;            \
	VPBROADCASTQ AX, IDX4;   \
	MOVQ  $5, AX;            \
	VPBROADCASTQ AX, IDX5;   \
	MOVQ  $6, AX;            \
	VPBROADCASTQ AX, IDX6;   \
	MOVQ  $7, AX;            \
	VPBROADCASTQ AX, IDX7;   \
	VMOVDQU64   0(DI), S0;   \
	VMOVDQU64.Z 64(DI), K3, S8

#define SSTORE \
	VMOVDQU64 S0, 0(DI);      \
	VMOVDQU64 S8, K3, 64(DI)

// SREDUCE sets AX to a lane congruent to DX·2^64 + AX, as reduce128
// does. Clobbers DX, R10, R11.
#define SREDUCE \
	MOVQ DX, R10;      \
	SHRQ $32, R10;     \
	SUBQ R10, AX;      \
	SBBQ R11, R11;     \
	MOVL R11, R11;     \
	SUBQ R11, AX;      \
	MOVL DX, R10;      \
	MOVQ R10, R11;     \
	SHLQ $32, R11;     \
	SUBQ R10, R11;     \
	ADDQ R11, AX;      \
	SBBQ R10, R10;     \
	MOVL R10, R10;     \
	ADDQ R10, AX

// SSBOX sets AX = AX^7. Clobbers DX, R10-R13.
#define SSBOX \
	MOVQ AX, R12;  \
	MULQ AX;       \
	SREDUCE;       \
	MOVQ AX, R13;  \
	MULQ R12;      \
	SREDUCE;       \
	MOVQ AX, R12;  \
	MOVQ R13, AX;  \
	MULQ R13;      \
	SREDUCE;       \
	MULQ R12;      \
	SREDUCE

// func permuteAVX512(s *lanes)
TEXT ·permuteAVX512(SB), NOSPLIT, $0-8
	MOVQ s+0(FP), DI
	SSETUP
	LEAQ ·x8Table(SB), R8
	LEAQ ·mdsCols(SB), R9

	XORQ BX, BX // 0 for the first half of the full rounds, 1 for the second
	MOVQ $const_HalfFullRounds, CX

sfull:
	VPADDQ    0(R8), S0, S0
	VPCMPUQ   $1, 0(R8), S0, K1
	VPADDQ    EPS, S0, K1, S0
	VMOVDQU64.Z 64(R8), K3, Z30
	VPADDQ    Z30, S8, S8
	VPCMPUQ   $1, Z30, S8, K2
	VPADDQ    EPS, S8, K2, S8
	SBOX(S0)
	SBOX(S8)
	SMDS
	ADDQ $(8*const_Width), R8
	DECQ CX
	JNZ  sfull
	TESTQ BX, BX
	JNZ   sdone
	MOVQ  $1, BX

	MOVQ $const_PartialRounds, CX

spartial:
	VMOVQ X0, AX
	ADDQ  0(R8), AX
	SBBQ  R10, R10
	MOVL  R10, R10
	ADDQ  R10, AX
	SSBOX
	VPERMQ S0, IDX1, BC
	COLSET(128)
	COLS2
	VPBROADCASTQ AX, BC
	COL(0)
	JOINS
	ADDQ $8, R8
	DECQ CX
	JNZ  spartial

	MOVQ $const_HalfFullRounds, CX
	JMP  sfull

sdone:
	SSTORE
	VZEROUPPER
	RET

// func mdsAVX512(s *lanes)
TEXT ·mdsAVX512(SB), NOSPLIT, $0-8
	MOVQ s+0(FP), DI
	SSETUP
	LEAQ ·mdsCols(SB), R9
	SMDS
	SSTORE
	VZEROUPPER
	RET
