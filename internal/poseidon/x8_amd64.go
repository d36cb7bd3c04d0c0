//go:build !purego

package poseidon

import "unizk/internal/field"

// permuteX8 runs eight independent permutations in place.
//
//unizklint:hotpath
func permuteX8(x *lanesX8) {
	if field.AVX512 {
		permuteX8AVX512(x)
		return
	}
	permuteX8Generic(x)
}

// permuteLanes runs the rounds of Permute in place.
//
//unizklint:hotpath
func permuteLanes(s *lanes) {
	if field.AVX512 {
		permuteAVX512(s)
		return
	}
	permuteLanesGeneric(s)
}

// permuteAVX512 is the AVX-512F single-state permutation of
// x8_amd64.s, walking x8Table and mdsCols.
//
//go:noescape
func permuteAVX512(s *lanes)

// mdsAVX512 applies permuteAVX512's MDS layer alone, for tests.
//
//go:noescape
func mdsAVX512(s *lanes)

// permuteX8AVX512 is the AVX-512F permutation of x8_amd64.s, walking
// x8Table.
//
//go:noescape
func permuteX8AVX512(x *lanesX8)

// mdsX8AVX512 applies the kernel's MDS layer alone, for tests.
//
//go:noescape
func mdsX8AVX512(x *lanesX8)

// x8Table holds the constants the assembly adds, in walk order: the first
// full rounds' vectors, one lane-0 scalar per partial round, then the last
// full rounds' vectors. The kernel runs the partial rounds in textbook
// form (constant, S-box on lane 0, MDS), where only lane 0 of a round's
// constant must be added before the S-box; lanes 1..11 commute with it,
// so initX8 pushes them forward through the MDS matrix into the next
// round's constant, and the last partial round's into the first of the
// final full rounds.
var x8Table [FullRounds*Width + PartialRounds]uint64

// mdsCols holds the MDS matrix by columns for permuteAVX512: column c
// is mdsCols[c][:Width], rows 0-7 then 8-11, padded with zeros to two
// 512-bit vectors.
var mdsCols [Width][16]uint64

// initX8 builds x8Table and mdsCols from the round constants and the MDS
// matrix. It runs from the
// package init, after those constants exist.
func initX8() {
	m := MDSMatrix()
	for r, row := range m {
		for c, e := range row {
			mdsCols[c][r] = uint64(e)
		}
	}
	t := x8Table[:0]
	// owed is what the previous partial round still adds to the state:
	// M times lanes 1..11 of its constant.
	owed := make([]field.Element, Width)
	for r, rc := range roundConstants {
		for i := range rc {
			rc[i] = field.Add(rc[i], owed[i])
		}
		if r < HalfFullRounds || r >= HalfFullRounds+PartialRounds {
			for _, c := range rc {
				t = append(t, uint64(c))
			}
			clear(owed)
			continue
		}
		t = append(t, uint64(rc[0]))
		rc[0] = 0
		owed = m.MulVec(rc[:])
	}
	if len(t) != len(x8Table) {
		panic("poseidon: x8Table layout mismatch")
	}
}
