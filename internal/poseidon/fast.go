package poseidon

import "unizk/internal/field"

// Derivation of the fast partial-round form from the naive specification.
//
// The naive partial-round chain is
//
//	x → M·S₀(x + c_r),  r = 0..R_P-1
//
// with S₀ the S-box on element 0 only and M the dense MDS matrix. Two
// facts enable the optimized form:
//
//  1. Any invertible M factors as M = M″·P with P = diag(1, M̂)
//     (M̂ = M[1:,1:]) and M″ sparse (first row, first column, identity
//     diagonal). P commutes with S₀ because it fixes element 0, so every
//     P can be pushed backwards through the S-boxes toward the input,
//     merging into the previous round's matrix, leaving one dense initial
//     matrix (with identity first row/column) plus one sparse matrix per
//     round.
//  2. Constant vectors added before an S-box split: the element-0 part
//     stays (as a scalar added right after the previous round's S-box)
//     and the rest commutes with S₀, so it can be pulled backwards through
//     matrix inverses all the way to a single first constant vector.
//
// The results are stored in the fast* package variables and validated
// against PermuteNaive by property tests.
var (
	fastFirstConstant   [Width]field.Element
	fastInitMatrix      Matrix
	fastScalarConstants [PartialRounds]field.Element
	fastSparse          [PartialRounds]Sparse
)

// deriveFastConstants computes the factorization. It is called from init
// after the round constants are generated; failures (singular submatrices)
// would be construction-time errors for these fixed constants and panic.
func deriveFastConstants() {
	m := MDSMatrix()

	// consts[r] is the (evolving) vector added before S-box r of the
	// partial chain; it starts as the naive round constants.
	consts := make([][]field.Element, PartialRounds)
	for r := 0; r < PartialRounds; r++ {
		consts[r] = append([]field.Element(nil),
			roundConstants[HalfFullRounds+r][:]...)
	}

	// Phase 1: factor matrices back-to-front. d is the dense matrix
	// currently applied right after S-box r.
	d := m.Clone()
	for r := PartialRounds - 1; r >= 0; r-- {
		dHat := d.Submatrix(1, 1)
		dHatInv, err := dHat.Inverse()
		if err != nil {
			panic("poseidon: fast-round derivation failed: " + err.Error())
		}

		var sp Sparse
		sp.M00 = d[0][0]
		for j := 0; j < Width-1; j++ {
			// Row = D[0,1:]·M̂⁻¹ so that Row·M̂ reproduces D's first row.
			var acc field.Element
			for k := 0; k < Width-1; k++ {
				acc = field.MulAdd(d[0][1+k], dHatInv[k][j], acc)
			}
			sp.Row[j] = acc
			sp.Col[j] = d[1+j][0]
		}
		fastSparse[r] = sp

		// P = diag(1, M̂): push it left through S-box r into the previous
		// round's constant and matrix.
		p := Identity(Width)
		for i := 1; i < Width; i++ {
			for j := 1; j < Width; j++ {
				p[i][j] = dHat[i-1][j-1]
			}
		}
		if r > 0 {
			consts[r] = p.MulVec(consts[r])
			d = p.Mul(m)
		} else {
			fastInitMatrix = p
			for i := range fastInitRows {
				copy(fastInitRows[i][:], p[1+i][1:])
			}
		}
	}

	// Phase 2: pull the constant vectors backwards. pending0 accumulates
	// the vector sitting between the initial matrix and S-box 0.
	pending0 := make([]field.Element, Width)
	for r := PartialRounds - 1; r >= 1; r-- {
		inv, err := fastSparse[r-1].Dense().Inverse()
		if err != nil {
			panic("poseidon: fast-round derivation failed: " + err.Error())
		}
		v := inv.MulVec(consts[r])
		// The element-0 part becomes the post-S-box scalar of round r-1;
		// the rest commutes back through S-box r-1.
		fastScalarConstants[r-1] = field.Add(fastScalarConstants[r-1], v[0])
		v[0] = 0
		if r-1 == 0 {
			for i := range pending0 {
				pending0[i] = field.Add(pending0[i], v[i])
			}
		} else {
			for i := range v {
				consts[r-1][i] = field.Add(consts[r-1][i], v[i])
			}
		}
	}

	// pending0 sits after the initial matrix; fold it into the first
	// constant through the matrix inverse.
	initInv, err := fastInitMatrix.Inverse()
	if err != nil {
		panic("poseidon: fast-round derivation failed: " + err.Error())
	}
	back := initInv.MulVec(pending0)
	for i := 0; i < Width; i++ {
		fastFirstConstant[i] = field.Add(consts[0][i], back[i])
	}
}

// FastInitMatrix returns a copy of the derived pre-partial-round dense
// matrix (identity first row and column), for tests and the hardware
// mapping which needs the PreMDSMatrix contents.
func FastInitMatrix() Matrix { return fastInitMatrix.Clone() }

// FastSparseMatrices returns copies of the derived per-round sparse
// matrices, for tests and the hardware mapping.
func FastSparseMatrices() []Sparse {
	out := make([]Sparse, PartialRounds)
	copy(out, fastSparse[:])
	return out
}
