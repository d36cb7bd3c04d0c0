package plonk

import (
	"context"
	"fmt"
	"testing"

	"unizk/internal/constraint"
	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/trace"
)

// quotGrain is the chunk size of refQuotient's per-point loops.
const quotGrain = 1 << 9

// refQuotient is the reference for computeQuotient: it re-extends every
// column it reads onto the coset g·H_4N with a fresh coset NTT, evaluates
// the constraints in natural order and interpolates from there, sharing
// neither the committed LDEs nor the bit-reversed indexing with the
// prover.
func (c *Circuit) refQuotient(ctx context.Context,
	wiresBatch, zBatch *fri.PolynomialBatch,
	pi []field.Element, beta, gamma, alpha field.Element,
	rec *trace.Recorder) ([][]field.Element, error) {

	n := c.N
	d := 4 * n
	logD := c.LogN + 2
	shift := field.MultiplicativeGenerator

	numPolys := c.NumCols + c.Reps + 8*c.Reps + 1
	var err error
	rec.NTT(n, 1, true, false, false, func() {
		piCoeffs := make([]field.Element, n)
		copy(piCoeffs, pi)
		err = ntt.Transform(ctx, piCoeffs, ntt.Spec{Inverse: true})
		pi = piCoeffs
	})
	if err != nil {
		return nil, err
	}
	// All coset extensions run as one column batch, laid out as wires,
	// Z columns, selectors, sigmas (constants holds 5+3 per rep), PI.
	src := make([][]field.Element, 0, numPolys)
	src = append(src, wiresBatch.Coeffs[:c.NumCols]...)
	src = append(src, zBatch.Coeffs[:c.Reps]...)
	src = append(src, c.constants.Coeffs[:8*c.Reps]...)
	src = append(src, pi)
	ext := make([][]field.Element, numPolys)
	for i := range ext {
		ext[i] = make([]field.Element, d)
	}
	rec.NTT(d, numPolys, false, true, false, func() {
		err = ntt.Columns(ctx, ext, src, ntt.Spec{Shift: shift})
	})
	if err != nil {
		return nil, err
	}
	sel := c.NumCols + c.Reps // first selector column
	wiresD, zD := ext[:c.NumCols], ext[c.NumCols:sel]
	selD, sigD, piD := ext[sel:sel+5*c.Reps], ext[sel+5*c.Reps:sel+8*c.Reps], ext[sel+8*c.Reps]

	// Constraint evaluation — the "gate constraint evaluation" vector
	// kernel the paper highlights for data reuse (§5.4).
	t := make([]field.Element, d)
	rec.VecOp(d, numPolys, 30*c.Reps+12, func() {
		w := field.PrimitiveRootOfUnity(logD)
		rot := d / n // Z(g·x) is Z's coset evaluation rotated by D/N

		xs := make([]field.Element, d)
		err = parallel.For(ctx, d, quotGrain, func(lo, hi int) {
			x := field.Mul(shift, field.Exp(w, uint64(lo)))
			for j := lo; j < hi; j++ {
				xs[j] = x
				x = field.Mul(x, w)
			}
		})
		if err != nil {
			return
		}
		sN := field.Exp(shift, uint64(n))
		i4 := field.Exp(w, uint64(n))
		var xn [4]field.Element
		acc := sN
		for j := 0; j < 4; j++ {
			xn[j] = acc
			acc = field.Mul(acc, i4)
		}

		zhInv := make([]field.Element, d)
		l1Den := make([]field.Element, d)
		nElem := field.New(uint64(n))
		err = parallel.For(ctx, d, quotGrain, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				zhInv[j] = field.Sub(xn[j%4], field.One)
				l1Den[j] = field.Mul(nElem, field.Sub(xs[j], field.One))
			}
		})
		if err != nil {
			return
		}
		if err = field.BatchInverseCtx(ctx, zhInv); err != nil {
			return
		}
		if err = field.BatchInverseCtx(ctx, l1Den); err != nil {
			return
		}

		// The α accumulator restarts at every point, so points are fully
		// independent and the loop fans out over the pool.
		err = parallel.For(ctx, d, quotGrain, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				zh := field.Sub(xn[j%4], field.One)
				a := field.One
				var sum field.Element

				// Gate constraints, one per repetition.
				for rep := 0; rep < c.Reps; rep++ {
					gate := gateEval(selD[5*rep][j], selD[5*rep+1][j],
						selD[5*rep+2][j], selD[5*rep+3][j], selD[5*rep+4][j],
						wiresD[3*rep][j], wiresD[3*rep+1][j], wiresD[3*rep+2][j])
					if rep == 0 {
						gate = field.Add(gate, piD[j])
					}
					sum = field.Add(sum, field.Mul(a, gate))
					a = field.Mul(a, alpha)
				}

				// Permutation chain: π_{g+1}·gg_g = π_g·fg_g, with π_R = Z(g·x).
				for grp := 0; grp < c.Reps; grp++ {
					fAcc, gAcc := field.One, field.One
					for k := 0; k < groupCols; k++ {
						col := groupCols*grp + k
						id := field.Mul(c.ks[col], xs[j])
						fAcc = field.Mul(fAcc, field.Add(field.Add(wiresD[col][j],
							field.Mul(beta, id)), gamma))
						gAcc = field.Mul(gAcc, field.Add(field.Add(wiresD[col][j],
							field.Mul(beta, sigD[col][j])), gamma))
					}
					var next field.Element
					if grp == c.Reps-1 {
						next = zD[0][(j+rot)%d]
					} else {
						next = zD[grp+1][j]
					}
					perm := field.Sub(field.Mul(next, gAcc), field.Mul(zD[grp][j], fAcc))
					sum = field.Add(sum, field.Mul(a, perm))
					a = field.Mul(a, alpha)
				}

				// Boundary: L1·(Z − 1).
				l1 := field.Mul(zh, l1Den[j])
				bound := field.Mul(l1, field.Sub(zD[0][j], field.One))
				sum = field.Add(sum, field.Mul(a, bound))

				t[j] = field.Mul(sum, zhInv[j])
			}
		})
	})
	if err != nil {
		return nil, err
	}

	var tCoeffs []field.Element
	rec.NTT(d, 1, true, true, false, func() {
		tCoeffs = make([]field.Element, d)
		copy(tCoeffs, t)
		err = ntt.Transform(ctx, tCoeffs, ntt.Spec{Inverse: true, Shift: shift})
	})
	if err != nil {
		return nil, err
	}
	for _, cc := range tCoeffs[constraint.QuotientChunks*n:] {
		if cc != 0 {
			return nil, fmt.Errorf("plonk: quotient degree exceeds bound — constraint system bug")
		}
	}

	chunks := make([][]field.Element, constraint.QuotientChunks)
	for i := range chunks {
		chunks[i] = tCoeffs[i*n : (i+1)*n]
	}
	return chunks, nil
}

// gateEval computes qL·a + qR·b + qM·a·b + qO·c + qC.
func gateEval(ql, qr, qm, qo, qc, a, b, cv field.Element) field.Element {
	v := field.Mul(ql, a)
	v = field.MulAdd(qr, b, v)
	v = field.MulAdd(qm, field.Mul(a, b), v)
	v = field.MulAdd(qo, cv, v)
	return field.Add(v, qc)
}

// quotientCircuit builds a Fibonacci chain with exactly 2^logN rows at
// the given repetition count, and its witness.
func quotientCircuit(t *testing.T, cfg fri.Config, logN, reps int) (*Circuit, *Witness) {
	t.Helper()
	b := NewBuilder()
	out := b.AddPublicInput()
	prev, cur := b.Constant(field.Zero), b.Constant(field.One)
	x, y := field.Zero, field.One
	for len(b.qL) < (1<<(logN-1))*reps+1 {
		prev, cur = cur, b.Add(prev, cur)
		x, y = y, field.Add(x, y)
	}
	b.AssertEqual(cur, out)
	c := b.BuildWide(cfg, reps)
	if c.LogN != logN {
		t.Fatalf("circuit has 2^%d rows, want 2^%d", c.LogN, logN)
	}
	w := c.NewWitness()
	w.Set(out, y)
	return c, w
}

// TestQuotientMatchesReference pins the quotient evaluated on committed
// LDE points in bit-reversed order to the re-extending natural-order
// reference, chunk for chunk, across both rates the provers use.
func TestQuotientMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []fri.Config{fri.TestConfig(), fri.PlonkyConfig()} {
		for _, reps := range []int{1, 9, 16} {
			for logN := 3; logN <= 8; logN++ {
				name := fmt.Sprintf("rate%d/reps%d/2^%d", cfg.RateBits, reps, logN)
				c, w := quotientCircuit(t, cfg, logN, reps)
				beta, gamma, alpha := field.New(0x1234567), field.New(0xdeadbeef), field.New(uint64(logN*reps+5))
				tr, err := c.commitTrace(ctx, w, nil, func([]field.Element, merkle.Cap) (field.Element, field.Element) {
					return beta, gamma
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := c.computeQuotient(ctx, tr, alpha, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := c.refQuotient(ctx, tr.wires, tr.zs, tr.pi, beta, gamma, alpha, nil)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				for k := range want {
					for r := range want[k] {
						if got[k][r] != want[k][r] {
							t.Fatalf("%s: chunk %d coefficient %d: got %v, want %v", name, k, r, got[k][r], want[k][r])
						}
					}
				}
			}
		}
	}
}
