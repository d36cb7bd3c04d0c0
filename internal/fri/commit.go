package fri

import (
	"context"

	"unizk/internal/field"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/poly"
	"unizk/internal/trace"
)

// PolynomialBatch is a committed batch of polynomials: coefficients, their
// low degree extension on the coset g·H (bit-reversed order), and the
// Merkle tree over index-major rows. It corresponds to one "oracle" of the
// protocol and one Wires/Z/Quotient commitment node in the paper's
// computation graph (Fig. 7).
type PolynomialBatch struct {
	// Coeffs[i] is polynomial i's coefficient vector, length N.
	Coeffs [][]field.Element
	// LDE[i] is polynomial i's evaluations on g·H_M, M = N << RateBits,
	// in bit-reversed order (polynomial-major layout).
	LDE [][]field.Element
	// Tree commits to the index-major rows of LDE.
	Tree *merkle.Tree

	N        int
	RateBits int

	// owned are the pooled buffers backing LDE, the leaf arena, and (for
	// CommitValues-built batches) Coeffs; Release returns them.
	owned []*[]field.Element
}

// Release returns the batch's pooled buffers — LDE columns, the
// index-major leaf arena, owned coefficient vectors, and the Merkle
// digest levels — to their pools. The caller asserts the batch is dead:
// nothing that escaped into a Proof references them (opened rows are
// copied out of the tree by the query phase), and coefficient vectors
// supplied by the caller (CommitCoeffs) are never pooled, only dropped.
// Safe to call more than once; never releasing keeps the old
// garbage-collected behavior.
func (b *PolynomialBatch) Release() {
	for _, p := range b.owned {
		putBase(p)
	}
	b.owned = nil
	b.Coeffs = nil
	b.LDE = nil
	if b.Tree != nil {
		b.Tree.Release()
		b.Tree = nil
	}
}

// CommitValues commits polynomials given by their evaluations over the
// size-N subgroup in natural order. This is the full FRI commitment flow
// of paper Fig. 1 right: iNTT^NN (step 1), LDE with coset NTT^NR (step 2),
// Merkle tree construction (step 3).
func CommitValues(values [][]field.Element, rateBits, capHeight int, rec *trace.Recorder) *PolynomialBatch {
	b, err := CommitValuesContext(context.Background(), values, rateBits, capHeight, rec)
	parallel.Must(err)
	return b
}

// CommitValuesContext is CommitValues with cooperative cancellation
// threaded through every parallel kernel (per-column iNTTs, LDEs, the
// transpose, and the Merkle tree).
func CommitValuesContext(ctx context.Context, values [][]field.Element,
	rateBits, capHeight int, rec *trace.Recorder) (*PolynomialBatch, error) {

	n := len(values[0])
	coeffs := make([][]field.Element, len(values))
	coeffBufs := make([]*[]field.Element, len(values))
	for i := range coeffBufs {
		coeffBufs[i] = getBase(n)
		coeffs[i] = *coeffBufs[i]
	}
	var err error
	rec.NTT(n, len(values), true, false, false, func() {
		// Columns come from the buffer pool and are owned by the batch
		// (released with it).
		err = ntt.Columns(ctx, coeffs, values, ntt.Spec{Inverse: true})
	})
	if err != nil {
		for _, p := range coeffBufs {
			putBase(p)
		}
		return nil, err
	}
	b, err := CommitCoeffsContext(ctx, coeffs, rateBits, capHeight, rec)
	if err != nil {
		for _, p := range coeffBufs {
			putBase(p)
		}
		return nil, err
	}
	b.owned = append(b.owned, coeffBufs...)
	return b, nil
}

// CommitCoeffs commits polynomials given by coefficient vectors of equal
// power-of-two length.
func CommitCoeffs(coeffs [][]field.Element, rateBits, capHeight int, rec *trace.Recorder) *PolynomialBatch {
	b, err := CommitCoeffsContext(context.Background(), coeffs, rateBits, capHeight, rec)
	parallel.Must(err)
	return b
}

// CommitCoeffsContext is CommitCoeffs with cooperative cancellation; see
// CommitValuesContext.
func CommitCoeffsContext(ctx context.Context, coeffs [][]field.Element,
	rateBits, capHeight int, rec *trace.Recorder) (*PolynomialBatch, error) {

	n := len(coeffs[0])
	for _, c := range coeffs {
		if len(c) != n {
			panic("fri: all polynomials in a batch must have equal length")
		}
	}
	m := n << rateBits

	lde := make([][]field.Element, len(coeffs))
	owned := make([]*[]field.Element, 0, len(coeffs)+1)
	for i := range lde {
		p := getBase(m)
		owned = append(owned, p)
		lde[i] = *p
	}
	release := func() {
		for _, p := range owned {
			putBase(p)
		}
	}
	var err error
	rec.NTT(m, len(coeffs), false, true, true, func() {
		err = ntt.Columns(ctx, lde, coeffs, ntt.Spec{Shift: field.MultiplicativeGenerator, OutBR: true})
	})
	if err != nil {
		release()
		return nil, err
	}

	// Transpose to index-major rows — on UniZK this layout change is
	// handled implicitly by the global transpose buffer (§4, §5.1). Rows
	// are disjoint slices of one flat pooled arena, written per-chunk.
	leaves := make([][]field.Element, m)
	flatp := getBase(m * len(coeffs))
	owned = append(owned, flatp)
	rec.TransposeOp(m*len(coeffs), func() {
		flat := *flatp
		err = parallel.For(ctx, m, 1<<9, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				row := flat[j*len(coeffs) : (j+1)*len(coeffs)]
				for i := range coeffs {
					row[i] = lde[i][j]
				}
				leaves[j] = row
			}
		})
	})
	if err != nil {
		release()
		return nil, err
	}

	var tree *merkle.Tree
	rec.Merkle(m, len(coeffs), func() {
		tree, err = merkle.BuildContext(ctx, leaves, capHeight)
	})
	if err != nil {
		release()
		return nil, err
	}

	return &PolynomialBatch{
		Coeffs:   coeffs,
		LDE:      lde,
		Tree:     tree,
		N:        n,
		RateBits: rateBits,
		owned:    owned,
	}, nil
}

// Cap returns the batch's Merkle commitment.
func (b *PolynomialBatch) Cap() merkle.Cap { return b.Tree.Cap() }

// NumPolys returns the number of polynomials in the batch.
func (b *PolynomialBatch) NumPolys() int { return len(b.Coeffs) }

// EvalAll evaluates every polynomial of the batch at an extension point;
// these are the opened values ("Prove Openings" in paper Fig. 7).
func (b *PolynomialBatch) EvalAll(x field.Ext, rec *trace.Recorder) []field.Ext {
	out, err := b.EvalAllContext(context.Background(), x, rec)
	parallel.Must(err)
	return out
}

// EvalAllContext is EvalAll with the per-polynomial Horner evaluations
// fanned across the pool (each polynomial's evaluation stays serial — it
// is one long dependence chain).
func (b *PolynomialBatch) EvalAllContext(ctx context.Context, x field.Ext, rec *trace.Recorder) ([]field.Ext, error) {
	out := make([]field.Ext, len(b.Coeffs))
	var err error
	rec.VecOp(b.N, len(b.Coeffs), 2, func() {
		err = parallel.For(ctx, len(b.Coeffs), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = poly.EvalExt(b.Coeffs[i], x)
			}
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
