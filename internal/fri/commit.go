package fri

import (
	"context"
	"unsafe"

	"unizk/internal/field"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/trace"
)

// PolynomialBatch is a committed batch of polynomials: coefficients, their
// low degree extension on the coset g·H (bit-reversed order), and the
// Merkle tree whose leaf j is row j of the LDE, one value per polynomial.
// It corresponds to one "oracle" of the protocol and one
// Wires/Z/Quotient commitment node in the paper's computation graph
// (Fig. 7).
type PolynomialBatch struct {
	// Coeffs[i] is polynomial i's coefficient vector, length N.
	Coeffs [][]field.Element
	// LDE[i] is polynomial i's evaluations on g·H_M, M = N << RateBits,
	// in bit-reversed order (polynomial-major layout).
	LDE [][]field.Element
	// Tree commits to the rows of LDE (see Row).
	Tree *merkle.Tree

	N        int
	RateBits int

	// owned are the pooled buffers backing LDE and (for
	// CommitValues-built batches) Coeffs; Release returns them.
	owned []*[]field.Element
}

// Row returns a fresh copy of LDE row j, the data of Merkle leaf j:
// LDE[i][j] for every polynomial i.
func (b *PolynomialBatch) Row(j int) []field.Element {
	row := make([]field.Element, len(b.LDE))
	for i, col := range b.LDE {
		row[i] = col[j]
	}
	return row
}

// Release returns the batch's pooled buffers — LDE columns, owned
// coefficient vectors, and the Merkle digest levels — to their pools.
// The caller asserts the batch is dead: nothing that escaped into a
// Proof references them (the query phase copies the rows it opens out
// of the LDE), and coefficient vectors
// supplied by the caller (CommitCoeffs) are never pooled, only dropped.
// Safe to call more than once; never releasing keeps the old
// garbage-collected behavior.
func (b *PolynomialBatch) Release() {
	for _, p := range b.owned {
		baseBufs.Put(p)
	}
	b.owned = nil
	b.Coeffs = nil
	b.LDE = nil
	if b.Tree != nil {
		b.Tree.Release()
		b.Tree = nil
	}
}

// Detach moves the batch out of the buffer pools into arrays of exactly
// its size and returns the pooled buffers, for a batch that outlives
// many proofs (a circuit's preprocessed constants): a pool hands back
// any buffer large enough, which after a larger proof is larger than
// the batch, and the batch would keep it alive for life.
func (b *PolynomialBatch) Detach() {
	for _, cols := range [][][]field.Element{b.Coeffs, b.LDE} {
		for i, c := range cols {
			cols[i] = append(make([]field.Element, 0, len(c)), c...)
		}
	}
	for _, p := range b.owned {
		baseBufs.Put(p)
	}
	b.owned = nil
	b.Tree.Detach()
}

// CommitValues commits polynomials given by their evaluations over the
// size-N subgroup in natural order. This is the full FRI commitment flow
// of paper Fig. 1 right: iNTT^NN (step 1), LDE with coset NTT^NR (step 2),
// Merkle tree construction (step 3). Cancellation reaches every parallel
// kernel (per-column iNTTs, LDEs, and the Merkle tree).
func CommitValues(ctx context.Context, values [][]field.Element,
	rateBits, capHeight int, rec *trace.Recorder) (*PolynomialBatch, error) {

	n := len(values[0])
	coeffs := make([][]field.Element, len(values))
	coeffBufs := make([]*[]field.Element, len(values))
	for i := range coeffBufs {
		coeffBufs[i] = baseBufs.Get(n)
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
			baseBufs.Put(p)
		}
		return nil, err
	}
	b, err := CommitCoeffs(ctx, coeffs, rateBits, capHeight, rec)
	if err != nil {
		for _, p := range coeffBufs {
			baseBufs.Put(p)
		}
		return nil, err
	}
	b.owned = append(b.owned, coeffBufs...)
	return b, nil
}

// CommitCoeffs commits polynomials given by coefficient vectors of equal
// power-of-two length; see CommitValues.
func CommitCoeffs(ctx context.Context, coeffs [][]field.Element,
	rateBits, capHeight int, rec *trace.Recorder) (*PolynomialBatch, error) {

	n := len(coeffs[0])
	for _, c := range coeffs {
		if len(c) != n {
			panic("fri: all polynomials in a batch must have equal length")
		}
	}
	m := n << rateBits

	lde := make([][]field.Element, len(coeffs))
	owned := make([]*[]field.Element, 0, len(coeffs))
	for i := range lde {
		p := baseBufs.Get(m)
		owned = append(owned, p)
		lde[i] = *p
	}
	release := func() {
		for _, p := range owned {
			baseBufs.Put(p)
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

	// The Merkle leaves are the LDE's rows, hashed straight from the
	// columns: on UniZK this layout change is handled implicitly by the
	// global transpose buffer (§4, §5.1), and here it costs nothing
	// either. The transpose node stays in the kernel graph, with no CPU
	// work in it, so the simulator still models the hardware's pass.
	rec.TransposeOp(m*len(coeffs), func() {})
	var tree *merkle.Tree
	rec.Merkle(m, len(coeffs), func() {
		tree, err = merkle.BuildColumnsContext(ctx, lde, capHeight)
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

// ResidentBytes is the heap the batch keeps alive: its coefficient and
// LDE columns and its Merkle levels.
func (b *PolynomialBatch) ResidentBytes() int64 {
	n := ColumnBytes(b.Coeffs) + ColumnBytes(b.LDE)
	if b.Tree != nil {
		n += b.Tree.ResidentBytes()
	}
	return n
}

// ColumnBytes is the heap that the backing arrays of cols occupy.
func ColumnBytes(cols [][]field.Element) int64 {
	n := int64(cap(cols)) * int64(unsafe.Sizeof([]field.Element(nil)))
	for _, c := range cols {
		n += int64(cap(c)) * int64(unsafe.Sizeof(field.Zero))
	}
	return n
}

// NumPolys returns the number of polynomials in the batch.
func (b *PolynomialBatch) NumPolys() int { return len(b.Coeffs) }

// EvalAll evaluates every polynomial of the batch at an extension point;
// these are the opened values ("Prove Openings" in paper Fig. 7). It
// works as dot products: the powers x^0..x^(N−1) are built once per call
// (N extension multiplies), as their two base components in pooled
// scratch, and each polynomial's value is two field.Dot calls against
// them, with the polynomials fanned across the pool. Horner's rule in the
// extension pays five reduced multiplies per coefficient; the dot
// products pay two unreduced ones and one reduction per component.
func (b *PolynomialBatch) EvalAll(ctx context.Context, x field.Ext, rec *trace.Recorder) ([]field.Ext, error) {
	out := make([]field.Ext, len(b.Coeffs))
	n := 0
	for _, c := range b.Coeffs {
		n = max(n, len(c))
	}
	pap, pbp := baseBufs.Get(n), baseBufs.Get(n)
	defer baseBufs.Put(pap)
	defer baseBufs.Put(pbp)
	pa, pb := *pap, *pbp
	var err error
	rec.VecOp(b.N, len(b.Coeffs), 2, func() {
		p := field.ExtOne
		for i := range pa {
			pa[i], pb[i] = p.A, p.B
			p = field.ExtMul(p, x)
		}
		err = parallel.For(ctx, len(b.Coeffs), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c := b.Coeffs[i]
				out[i] = field.Ext{A: field.Dot(c, pa[:len(c)]), B: field.Dot(c, pb[:len(c)])}
			}
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
