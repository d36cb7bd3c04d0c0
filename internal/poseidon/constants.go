// Package poseidon implements the Poseidon permutation over the Goldilocks
// field as used by Plonky2 and Starky (paper §5.2, Algorithm 1): state
// width 12, x^7 S-box, 8 full rounds and 22 partial rounds. Both the naive
// specification and the optimized fast form with sparse partial-round
// matrices are provided; the fast form's matrices and constants are derived
// from the MDS matrix by the factorization in fast.go and are proven equal
// to the naive form by property tests.
//
// The sponge (rate 8, capacity 4), Merkle two-to-one compression, and the
// Fiat–Shamir Challenger are built on the permutation.
package poseidon

import "unizk/internal/field"

const (
	// Width is the permutation state size in field elements.
	Width = 12
	// FullRounds is the total number of full rounds (half before the
	// partial rounds, half after).
	FullRounds = 8
	// HalfFullRounds is the number of full rounds on each side.
	HalfFullRounds = FullRounds / 2
	// PartialRounds is the number of partial rounds.
	PartialRounds = 22
	// Rate is the sponge rate (elements absorbed/squeezed per permutation).
	Rate = 8
	// Capacity is the sponge capacity.
	Capacity = Width - Rate
	// HashOutLen is the number of elements in a hash digest.
	HashOutLen = 4
)

// The MDS matrix is M[r][c] = circ[(c-r) mod 12], plus diag[r] on the
// diagonal; only diag[0] is non-zero. These are plonky2's Goldilocks
// width-12 values, named so the unrolled mdsLayer and the tables below
// share one source.
const (
	mds0, mds1, mds2, mds3, mds4, mds5   = 17, 15, 41, 16, 2, 28
	mds6, mds7, mds8, mds9, mds10, mds11 = 13, 13, 39, 18, 34, 20
	mdsD0                                = 8
)

var mdsCirc = [Width]field.Element{mds0, mds1, mds2, mds3, mds4, mds5, mds6, mds7, mds8, mds9, mds10, mds11}
var mdsDiag = [Width]field.Element{mdsD0}

// MDSMatrix returns the dense MDS matrix.
func MDSMatrix() Matrix {
	m := NewMatrix(Width)
	for r := 0; r < Width; r++ {
		for c := 0; c < Width; c++ {
			m[r][c] = mdsCirc[(c-r+Width)%Width]
			if r == c {
				m[r][c] = field.Add(m[r][c], mdsDiag[r])
			}
		}
	}
	return m
}

// roundConstants holds one width-12 constant vector per round (full and
// partial), generated deterministically below.
var roundConstants [FullRounds + PartialRounds][Width]field.Element

// Round constants are nothing-up-my-sleeve values from a seeded xorshift64*
// generator (see DESIGN.md §2.9: plonky2's exact tables are not in the
// paper; the structure, which determines performance, is).
const roundConstantSeed = 0x5ec0ded_0c0ffee

func init() {
	s := uint64(roundConstantSeed)
	next := func() field.Element {
		// xorshift64* — adequate for fixed public constants.
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return field.New(s * 0x2545F4914F6CDD1D)
	}
	for r := range roundConstants {
		for i := 0; i < Width; i++ {
			roundConstants[r][i] = next()
		}
	}
	deriveFastConstants()
	initX8()
}
