package fri

import (
	"context"
	"fmt"

	"unizk/internal/field"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/trace"
)

// combine returns layer 0 of the commit phase: the combined opening
// quotient
//
//	F(X) = Σ_g (B_g(X) − y_g) / (X − z_g),   B_g = Σ α^k·p_k,
//
// with one fresh power of α per (group, poly) in the transcript's
// (oracle, poly) order, evaluated on the LDE domain g·H_M in bit-reversed
// order. As in Plonky2's prove_openings, F is built in coefficient form:
// each group's B_g is reduced on the N coefficients, y_g is subtracted,
// the result is divided by (X − z_g) with synthetic division, and F is
// extended once. y_g = B_g(z_g), so the division is exact and F agrees
// with the pointwise combination at every LDE point; it costs 1/2^rate of
// the pointwise work and no inversions. A nonzero remainder means an
// opened value is wrong, which panics as the final-polynomial degree
// check would. The returned buffer is pooled (extBufs.Put).
//
// The reduce is element-wise vector work, the "Poly" kernel class of the
// paper, split over disjoint coefficient ranges; the division is one
// serial N-step recurrence per group.
func combine(ctx context.Context, oracles []*PolynomialBatch, groups []PointGroup,
	opened OpenedValues, alpha field.Ext, rec *trace.Recorder) (*[]field.Ext, error) {

	n := oracles[0].N
	m := n << oracles[0].RateBits
	totalPolys := 0
	for _, g := range groups {
		for _, oi := range g.Oracles {
			totalPolys += oracles[oi].NumPolys()
		}
	}

	// F's two base components: coefficients in [:n], zero-padded, then
	// their LDE in place.
	fap, fbp := baseBufs.Get(m), baseBufs.Get(m)
	defer baseBufs.Put(fap)
	defer baseBufs.Put(fbp)
	fa, fb := *fap, *fbp
	clear(fa)
	clear(fb)
	bap, bbp := baseBufs.Get(n), baseBufs.Get(n)
	defer baseBufs.Put(bap)
	defer baseBufs.Put(bbp)
	ba, bb := *bap, *bbp
	var err error
	rec.VecOp(n, totalPolys, 4, func() {
		pows := make([]field.Ext, totalPolys)
		acc := field.ExtOne
		for i := range pows {
			pows[i] = acc
			acc = field.ExtMul(acc, alpha)
		}
		off := 0
		for gi, g := range groups {
			// Flatten the group's polynomials and α powers, and fold the
			// opened values into y.
			var coeffs [][]field.Element
			var gpows []field.Ext
			y := field.ExtZero
			k := off
			for ki, oi := range g.Oracles {
				for pi, c := range oracles[oi].Coeffs {
					coeffs = append(coeffs, c)
					gpows = append(gpows, pows[k])
					y = field.ExtAdd(y, field.ExtMul(pows[k], opened[gi][ki][pi]))
					k++
				}
			}
			off = k
			if err = parallel.For(ctx, n, vecGrain, func(lo, hi int) {
				reduceRange(lo, hi, coeffs, gpows, ba, bb)
			}); err != nil {
				return
			}
			ba[0], bb[0] = field.Sub(ba[0], y.A), field.Sub(bb[0], y.B)
			if !divideByLinear(ba, bb, g.Point, fa, fb) {
				panic("fri: combined polynomial is not low degree — outer protocol bug")
			}
		}
	})
	if err != nil {
		return nil, err
	}

	fp := extBufs.Get(m)
	rec.NTT(m, 2, false, true, true, func() {
		cols := [][]field.Element{fa, fb}
		if err = ntt.Columns(ctx, cols, cols, ntt.Spec{Shift: field.MultiplicativeGenerator, OutBR: true}); err != nil {
			return
		}
		f := *fp
		err = parallel.For(ctx, m, vecGrain, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				f[j] = field.Ext{A: fa[j], B: fb[j]}
			}
		})
	})
	if err != nil {
		extBufs.Put(fp)
		return nil, err
	}
	return fp, nil
}

// Combine runs the opening combination as a standalone kernel, for
// benchmarks and differential tests: it writes layer 0 for the given α
// into dst, which holds the N·2^RateBits points of the oracles' LDE,
// without touching a transcript. Prove's combine uses the identical code
// path, and its pooled buffer goes back to the pool here as there.
func Combine(ctx context.Context, dst []field.Ext, oracles []*PolynomialBatch, groups []PointGroup, opened OpenedValues, alpha field.Ext) error {
	if m := oracles[0].N << oracles[0].RateBits; len(dst) != m {
		return fmt.Errorf("fri: Combine into %d points, want %d", len(dst), m)
	}
	fp, err := combine(ctx, oracles, groups, opened, alpha, nil)
	if err != nil {
		return err
	}
	copy(dst, *fp)
	extBufs.Put(fp)
	return nil
}

// reduceRange sets B[j] = Σ_p pows[p]·coeffs[p][j] for j in [lo, hi),
// B = ba + bb·X kept as its two base components: a base coefficient
// times an extension power is two scalar×vector multiply-adds. It runs
// one polynomial at a time so the chunk of B stays in cache.
//
//unizklint:hotpath
func reduceRange(lo, hi int, coeffs [][]field.Element, pows []field.Ext, ba, bb []field.Element) {
	ba, bb = ba[lo:hi], bb[lo:hi]
	clear(ba)
	clear(bb)
	for p, c := range coeffs {
		field.ScaleAddVec(ba, pows[p].A, c[lo:hi])
		field.ScaleAddVec(bb, pows[p].B, c[lo:hi])
	}
}

// divideByLinear divides B(X) = ba + bb·X by (X − z) with synthetic
// division, adds the quotient's coefficients into F = fa + fb·X
// component-wise, and reports whether the remainder is zero. The
// quotient has degree len(ba) − 2, so F's top coefficient is left as it
// was.
//
//unizklint:hotpath
func divideByLinear(ba, bb []field.Element, z field.Ext, fa, fb []field.Element) bool {
	q := field.ExtZero // q_{i−1} = b_i + z·q_i, from q_{n−1} = 0
	for i := len(ba) - 1; i > 0; i-- {
		q = field.ExtAdd(field.Ext{A: ba[i], B: bb[i]}, field.ExtMul(z, q))
		fa[i-1] = field.Add(fa[i-1], q.A)
		fb[i-1] = field.Add(fb[i-1], q.B)
	}
	return field.ExtAdd(field.Ext{A: ba[0], B: bb[0]}, field.ExtMul(z, q)).IsZero()
}
