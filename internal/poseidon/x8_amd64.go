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

// permuteX8AVX512 is the AVX-512F permutation of x8_amd64.s, walking
// x8Table.
//
//go:noescape
func permuteX8AVX512(x *lanesX8)

// Layout of x8Table, in uint64 entries, in the order the assembly walks
// it. A constant that is added is stored whole; a constant that
// multiplies an arbitrary lane is stored as its low and high 32-bit
// halves, so VPMULUDQ with an embedded broadcast multiplies by each half
// straight from memory.
const (
	x8PartialLen = 1 + 2 + 4*(Width-1) // scalar constant, M00, Row, Col
	x8Full1      = 0
	x8First      = x8Full1 + HalfFullRounds*Width
	x8PreRows    = x8First + Width
	x8Partial    = x8PreRows + (Width-1)*2*(Width-1)
	x8Full2      = x8Partial + PartialRounds*x8PartialLen
	x8MDS        = x8Full2 + HalfFullRounds*Width // pre-rotated rows
	x8Len        = x8MDS + Width*Width

	// x8MDSOffset is x8MDS in bytes, for the assembly (go_asm.h).
	x8MDSOffset = 8 * x8MDS
)

// x8Table holds every constant of Permute in the walk order above.
var x8Table [x8Len]uint64

// initX8 builds x8Table from the round and fast-form constants. It runs
// from the package init, after those constants exist.
func initX8() {
	t := x8Table[:0]
	add := func(rc *[Width]field.Element) {
		for _, c := range rc {
			t = append(t, uint64(c))
		}
	}
	mul := func(c field.Element) { t = append(t, uint64(c)&epsilon, uint64(c)>>32) }

	for r := 0; r < HalfFullRounds; r++ {
		add(&roundConstants[r])
	}
	add(&fastFirstConstant)
	for i := range fastInitRows {
		for _, c := range fastInitRows[i] {
			mul(c)
		}
	}
	for p := range fastSparse {
		sp := &fastSparse[p]
		t = append(t, uint64(fastScalarConstants[p]))
		mul(sp.M00)
		for _, c := range sp.Row {
			mul(c)
		}
		for _, c := range sp.Col {
			mul(c)
		}
	}
	for r := HalfFullRounds + PartialRounds; r < FullRounds+PartialRounds; r++ {
		add(&roundConstants[r])
	}
	m := MDSMatrix()
	for r := range m {
		for _, c := range m[r] {
			t = append(t, uint64(c))
		}
	}
	if len(t) != x8Len {
		panic("poseidon: x8Table layout mismatch")
	}
}
