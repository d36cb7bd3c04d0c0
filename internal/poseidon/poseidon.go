package poseidon

import (
	"math/bits"

	"unizk/internal/field"
)

// State is the permutation state.
type State [Width]field.Element

// SBox exposes the x^7 S-box for the hardware mapping models.
func SBox(x field.Element) field.Element { return sbox(x) }

// RoundConstant exposes the round constant for round r, lane i, for the
// hardware mapping models.
func RoundConstant(r, i int) field.Element { return roundConstants[r][i] }

// FastScalarConstant exposes the derived post-S-box scalar constant of
// partial round p (paper Algorithm 1, PartialRoundConst).
func FastScalarConstant(p int) field.Element { return fastScalarConstants[p] }

// FastFirstConstant exposes the derived pre-partial-round constant vector
// (paper Algorithm 1, PrePartialRoundConst).
func FastFirstConstant() [Width]field.Element { return fastFirstConstant }

// sbox is the x^7 S-box (4 multiplications).
//
//unizklint:hotpath
func sbox(x field.Element) field.Element {
	x2 := field.Square(x)
	x3 := field.Mul(x2, x)
	x4 := field.Square(x2)
	return field.Mul(x4, x3)
}

// lanes is the state of the optimized permutation between rounds. A lane
// holds any uint64 congruent to its field element, not necessarily the
// canonical representative: every kernel below accepts the full 64-bit
// range, so the rounds skip the per-operation canonicalisation and
// Permute canonicalises once, on the way out.
type lanes [Width]uint64

// epsilon is 2^64 mod p = 2^32 - 1 (see package field).
const epsilon = 1<<32 - 1

// reduce128 reduces hi·2^64 + lo to a lane (< 2^64, not canonical), using
// 2^64 ≡ 2^32 - 1 and 2^96 ≡ -1. The carry and borrow corrections are
// masks, not branches: the carry out of the final add is a coin flip on
// random data.
//
//unizklint:hotpath
func reduce128(hi, lo uint64) uint64 {
	t0, borrow := bits.Sub64(lo, hi>>32, 0)
	t0 -= epsilon & -borrow // wrapped by at least 2^64 - 2^32: no underflow
	t1, carry := bits.Add64(t0, (hi&epsilon)*epsilon, 0)
	return t1 + (epsilon & -carry) // wrapped below 2^64 - 2^33: no overflow
}

// reduce96 reduces hi·2^64 + lo with hi < 2^32 to a lane.
//
//unizklint:hotpath
func reduce96(hi, lo uint64) uint64 {
	t, carry := bits.Add64(lo, hi*epsilon, 0)
	return t + (epsilon & -carry)
}

//unizklint:hotpath
func mulLane(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return reduce128(hi, lo)
}

// addLane returns a + c for a lane a and a canonical constant c; the
// wrapped sum is below c < p, so adding 2^32 - 1 back cannot overflow.
//
//unizklint:hotpath
func addLane(a, c uint64) uint64 {
	t, carry := bits.Add64(a, c, 0)
	return t + (epsilon & -carry)
}

// sboxLane is the x^7 S-box on a lane.
//
//unizklint:hotpath
func sboxLane(x uint64) uint64 {
	x2 := mulLane(x, x)
	x3 := mulLane(x2, x)
	x4 := mulLane(x2, x2)
	return mulLane(x4, x3)
}

// mdsLayer multiplies the lanes by the MDS matrix. The entries are at most
// 6 bits wide, so each lane splits into 32-bit limbs and the twelve
// entry × limb products per output sum exactly in a uint64 (12·49·2^32 <
// 2^42) — no 128-bit multiplies — leaving one 96-bit reduction per output:
// the same small-constant property that keeps the hardware's modular
// multipliers cheap (§4). The rows are written out pre-rotated, row r
// using circ[(c-r) mod 12] (plus the diagonal on row 0), so the entries
// are immediates rather than loads.
//
//unizklint:hotpath
func mdsLayer(s *lanes) {
	l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11 := s[0]&epsilon, s[1]&epsilon, s[2]&epsilon, s[3]&epsilon, s[4]&epsilon, s[5]&epsilon, s[6]&epsilon, s[7]&epsilon, s[8]&epsilon, s[9]&epsilon, s[10]&epsilon, s[11]&epsilon
	h0, h1, h2, h3, h4, h5, h6, h7, h8, h9, h10, h11 := s[0]>>32, s[1]>>32, s[2]>>32, s[3]>>32, s[4]>>32, s[5]>>32, s[6]>>32, s[7]>>32, s[8]>>32, s[9]>>32, s[10]>>32, s[11]>>32
	sl0 := (mds0+mdsD0)*l0 + mds1*l1 + mds2*l2 + mds3*l3 + mds4*l4 + mds5*l5 + mds6*l6 + mds7*l7 + mds8*l8 + mds9*l9 + mds10*l10 + mds11*l11
	sh0 := (mds0+mdsD0)*h0 + mds1*h1 + mds2*h2 + mds3*h3 + mds4*h4 + mds5*h5 + mds6*h6 + mds7*h7 + mds8*h8 + mds9*h9 + mds10*h10 + mds11*h11
	sl1 := mds11*l0 + mds0*l1 + mds1*l2 + mds2*l3 + mds3*l4 + mds4*l5 + mds5*l6 + mds6*l7 + mds7*l8 + mds8*l9 + mds9*l10 + mds10*l11
	sh1 := mds11*h0 + mds0*h1 + mds1*h2 + mds2*h3 + mds3*h4 + mds4*h5 + mds5*h6 + mds6*h7 + mds7*h8 + mds8*h9 + mds9*h10 + mds10*h11
	sl2 := mds10*l0 + mds11*l1 + mds0*l2 + mds1*l3 + mds2*l4 + mds3*l5 + mds4*l6 + mds5*l7 + mds6*l8 + mds7*l9 + mds8*l10 + mds9*l11
	sh2 := mds10*h0 + mds11*h1 + mds0*h2 + mds1*h3 + mds2*h4 + mds3*h5 + mds4*h6 + mds5*h7 + mds6*h8 + mds7*h9 + mds8*h10 + mds9*h11
	sl3 := mds9*l0 + mds10*l1 + mds11*l2 + mds0*l3 + mds1*l4 + mds2*l5 + mds3*l6 + mds4*l7 + mds5*l8 + mds6*l9 + mds7*l10 + mds8*l11
	sh3 := mds9*h0 + mds10*h1 + mds11*h2 + mds0*h3 + mds1*h4 + mds2*h5 + mds3*h6 + mds4*h7 + mds5*h8 + mds6*h9 + mds7*h10 + mds8*h11
	sl4 := mds8*l0 + mds9*l1 + mds10*l2 + mds11*l3 + mds0*l4 + mds1*l5 + mds2*l6 + mds3*l7 + mds4*l8 + mds5*l9 + mds6*l10 + mds7*l11
	sh4 := mds8*h0 + mds9*h1 + mds10*h2 + mds11*h3 + mds0*h4 + mds1*h5 + mds2*h6 + mds3*h7 + mds4*h8 + mds5*h9 + mds6*h10 + mds7*h11
	sl5 := mds7*l0 + mds8*l1 + mds9*l2 + mds10*l3 + mds11*l4 + mds0*l5 + mds1*l6 + mds2*l7 + mds3*l8 + mds4*l9 + mds5*l10 + mds6*l11
	sh5 := mds7*h0 + mds8*h1 + mds9*h2 + mds10*h3 + mds11*h4 + mds0*h5 + mds1*h6 + mds2*h7 + mds3*h8 + mds4*h9 + mds5*h10 + mds6*h11
	sl6 := mds6*l0 + mds7*l1 + mds8*l2 + mds9*l3 + mds10*l4 + mds11*l5 + mds0*l6 + mds1*l7 + mds2*l8 + mds3*l9 + mds4*l10 + mds5*l11
	sh6 := mds6*h0 + mds7*h1 + mds8*h2 + mds9*h3 + mds10*h4 + mds11*h5 + mds0*h6 + mds1*h7 + mds2*h8 + mds3*h9 + mds4*h10 + mds5*h11
	sl7 := mds5*l0 + mds6*l1 + mds7*l2 + mds8*l3 + mds9*l4 + mds10*l5 + mds11*l6 + mds0*l7 + mds1*l8 + mds2*l9 + mds3*l10 + mds4*l11
	sh7 := mds5*h0 + mds6*h1 + mds7*h2 + mds8*h3 + mds9*h4 + mds10*h5 + mds11*h6 + mds0*h7 + mds1*h8 + mds2*h9 + mds3*h10 + mds4*h11
	sl8 := mds4*l0 + mds5*l1 + mds6*l2 + mds7*l3 + mds8*l4 + mds9*l5 + mds10*l6 + mds11*l7 + mds0*l8 + mds1*l9 + mds2*l10 + mds3*l11
	sh8 := mds4*h0 + mds5*h1 + mds6*h2 + mds7*h3 + mds8*h4 + mds9*h5 + mds10*h6 + mds11*h7 + mds0*h8 + mds1*h9 + mds2*h10 + mds3*h11
	sl9 := mds3*l0 + mds4*l1 + mds5*l2 + mds6*l3 + mds7*l4 + mds8*l5 + mds9*l6 + mds10*l7 + mds11*l8 + mds0*l9 + mds1*l10 + mds2*l11
	sh9 := mds3*h0 + mds4*h1 + mds5*h2 + mds6*h3 + mds7*h4 + mds8*h5 + mds9*h6 + mds10*h7 + mds11*h8 + mds0*h9 + mds1*h10 + mds2*h11
	sl10 := mds2*l0 + mds3*l1 + mds4*l2 + mds5*l3 + mds6*l4 + mds7*l5 + mds8*l6 + mds9*l7 + mds10*l8 + mds11*l9 + mds0*l10 + mds1*l11
	sh10 := mds2*h0 + mds3*h1 + mds4*h2 + mds5*h3 + mds6*h4 + mds7*h5 + mds8*h6 + mds9*h7 + mds10*h8 + mds11*h9 + mds0*h10 + mds1*h11
	sl11 := mds1*l0 + mds2*l1 + mds3*l2 + mds4*l3 + mds5*l4 + mds6*l5 + mds7*l6 + mds8*l7 + mds9*l8 + mds10*l9 + mds11*l10 + mds0*l11
	sh11 := mds1*h0 + mds2*h1 + mds3*h2 + mds4*h3 + mds5*h4 + mds6*h5 + mds7*h6 + mds8*h7 + mds9*h8 + mds10*h9 + mds11*h10 + mds0*h11
	s[0] = mdsRow(sl0, sh0)
	s[1] = mdsRow(sl1, sh1)
	s[2] = mdsRow(sl2, sh2)
	s[3] = mdsRow(sl3, sh3)
	s[4] = mdsRow(sl4, sh4)
	s[5] = mdsRow(sl5, sh5)
	s[6] = mdsRow(sl6, sh6)
	s[7] = mdsRow(sl7, sh7)
	s[8] = mdsRow(sl8, sh8)
	s[9] = mdsRow(sl9, sh9)
	s[10] = mdsRow(sl10, sh10)
	s[11] = mdsRow(sl11, sh11)
}

// mdsRow reduces one MDS output sl + sh·2^32 (below 2^75) to a lane.
//
//unizklint:hotpath
func mdsRow(sl, sh uint64) uint64 {
	low, carry := bits.Add64(sl, sh<<32, 0)
	return reduce96(sh>>32+carry, low)
}

// fullRound applies one full round with constants for round index r:
// constant layer, S-box on every lane, MDS layer.
//
//unizklint:hotpath
func fullRound(s *lanes, r int) {
	rc := &roundConstants[r]
	for i := range s {
		s[i] = sboxLane(addLane(s[i], uint64(rc[i])))
	}
	mdsLayer(s)
}

// PermuteNaive is the reference Poseidon permutation: 4 full rounds, 22
// partial rounds in the textbook form (full constant vector, S-box on
// element 0, dense MDS), 4 full rounds, in canonical field arithmetic
// with the dense MDSMatrix. It shares no round code with Permute and
// exists as its correctness oracle.
func PermuteNaive(s State) State {
	m := MDSMatrix()
	for r := 0; r < FullRounds+PartialRounds; r++ {
		for i := 0; i < Width; i++ {
			s[i] = field.Add(s[i], roundConstants[r][i])
		}
		full := r < HalfFullRounds || r >= HalfFullRounds+PartialRounds
		for i := 0; i < Width; i++ {
			if i == 0 || full {
				s[i] = sbox(s[i])
			}
		}
		copy(s[:], m.MulVec(s[:]))
	}
	return s
}

// Permute is the optimized permutation in the form of the paper's
// Algorithm 1: full rounds, a pre-partial round (constant vector + dense
// matrix touching only elements 1..11), then partial rounds that S-box
// element 0, add a scalar constant, and multiply by a sparse matrix with
// non-zeros only in the first row, first column, and diagonal — the form
// UniZK maps onto 12×3 PE regions using the reverse links (paper Fig. 5b).
//
//unizklint:hotpath
func Permute(s State) State {
	var x lanes
	for i, e := range s {
		x[i] = uint64(e)
	}
	permuteLanes(&x)
	for i, v := range x {
		s[i] = field.New(v)
	}
	return s
}

// permuteLanesGeneric runs the rounds of Permute in place in Go: the
// path on hosts without the SIMD backend and under the purego build tag,
// and the reference the single-state kernel is tested against.
//
//unizklint:hotpath
func permuteLanesGeneric(s *lanes) {
	r := 0
	for ; r < HalfFullRounds; r++ {
		fullRound(s, r)
	}

	// Pre-partial round (paper Algorithm 1, PrePartialRound).
	for i := range s {
		s[i] = addLane(s[i], uint64(fastFirstConstant[i]))
	}
	prePartialMatrix(s)

	// Partial rounds (paper Algorithm 1, PartialRound).
	for p := range fastSparse {
		s[0] = addLane(sboxLane(s[0]), uint64(fastScalarConstants[p]))
		fastSparse[p].apply(s)
	}
	r += PartialRounds

	for ; r < FullRounds+PartialRounds; r++ {
		fullRound(s, r)
	}
}

// dot returns a lane congruent to m00·x0 + Σ row[j]·xs[j], accumulated in
// a three-word (lo, hi, top) register with a single reduction: top counts
// the carries out of 128 bits, and 2^128 ≡ -2^32 (mod p).
//
//unizklint:hotpath
func dot(m00, x0 uint64, row *[Width - 1]field.Element, xs *[Width - 1]uint64) uint64 {
	hi, lo := bits.Mul64(m00, x0)
	var top uint64
	for j := range row {
		ph, pl := bits.Mul64(uint64(row[j]), xs[j])
		var c uint64
		lo, c = bits.Add64(lo, pl, 0)
		hi, c = bits.Add64(hi, ph, c)
		top += c
	}
	acc, borrow := bits.Sub64(reduce128(hi, lo), top<<32, 0)
	return acc - (epsilon & -borrow) // top < 12: the wrap stays above 2^32
}

// prePartialMatrix multiplies by the initial dense matrix, which has an
// identity first row and column, so element 0 passes through unchanged.
//
//unizklint:hotpath
func prePartialMatrix(s *lanes) {
	xs := [Width - 1]uint64(s[1:])
	for i := range xs {
		s[1+i] = dot(0, 0, &fastInitRows[i], &xs)
	}
}

// fastInitRows holds rows 1..11, columns 1..11 of fastInitMatrix, the
// only non-identity block.
var fastInitRows [Width - 1][Width - 1]field.Element

// Sparse is the SparseMDSMatrix of the paper's Algorithm 1/Fig. 5b: row 0
// is [M00, Row...], column 0 below the corner is Col, the rest is the
// identity. Applying it needs 2·(Width-1)+1 multiplies — the u/v/E
// decomposition UniZK exploits.
type Sparse struct {
	M00 field.Element
	Row [Width - 1]field.Element // row 0, columns 1..11 (u in Fig. 5b)
	Col [Width - 1]field.Element // column 0, rows 1..11 (v in Fig. 5b)
}

//unizklint:hotpath
func (m *Sparse) apply(s *lanes) {
	s0 := s[0]
	xs := (*[Width - 1]uint64)(s[1:])
	s[0] = dot(uint64(m.M00), s0, &m.Row, xs)
	for i := range xs {
		hi, lo := bits.Mul64(uint64(m.Col[i]), s0)
		lo, carry := bits.Add64(lo, xs[i], 0)
		xs[i] = reduce128(hi+carry, lo) // hi ≤ 2^64 - 2: no overflow
	}
}

// Dense returns the sparse matrix in dense form (used by the derivation
// and by tests).
func (m *Sparse) Dense() Matrix {
	d := Identity(Width)
	d[0][0] = m.M00
	for j := 1; j < Width; j++ {
		d[0][j] = m.Row[j-1]
		d[j][0] = m.Col[j-1]
	}
	return d
}
