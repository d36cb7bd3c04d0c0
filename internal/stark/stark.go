package stark

import (
	"context"
	"errors"
	"fmt"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/poseidon"
	"unizk/internal/prooferr"
	"unizk/internal/trace"
)

// maxConstraintDegree bounds transition constraint degree so the quotient
// fits in 3 degree-N chunks on a 4N coset.
const maxConstraintDegree = 4

const quotientChunks = 3

// quotGrain is the chunk size for the per-point quotient kernels.
const quotGrain = 1 << 9

// Boundary pins a column to a value on the first or last row — the
// "input and output constraints" of paper Fig. 2. The values are public.
type Boundary struct {
	Col   int
	Value field.Element
}

// AIR describes the algebraic execution trace and its constraints.
type AIR struct {
	// Width is the number of trace columns.
	Width int
	// Transitions must vanish between every pair of adjacent rows.
	Transitions []*Expr
	// FirstRow and LastRow are the boundary constraints.
	FirstRow []Boundary
	LastRow  []Boundary
}

// Stark binds an AIR to a trace length and FRI configuration.
type Stark struct {
	AIR
	N, LogN int
	cfg     fri.Config
}

// Proof is a Starky proof.
type Proof struct {
	TraceCap, QuotientCap merkle.Cap
	// Openings of the trace at ζ and g·ζ, and the quotient chunks at ζ.
	TraceOpen, TraceNextOpen, QuotientOpen []field.Ext
	FRI                                    *fri.Proof
}

// New validates the AIR and returns a Stark for 2^logN rows.
func New(air AIR, logN int, cfg fri.Config) (*Stark, error) {
	if air.Width <= 0 {
		return nil, errors.New("stark: AIR width must be positive")
	}
	for i, tr := range air.Transitions {
		if d := tr.Degree(); d > maxConstraintDegree {
			return nil, fmt.Errorf("stark: transition %d has degree %d > %d",
				i, d, maxConstraintDegree)
		}
		if c := tr.MaxCol(); c >= air.Width {
			return nil, fmt.Errorf("stark: transition %d references column %d >= width %d",
				i, c, air.Width)
		}
	}
	for _, bs := range [][]Boundary{air.FirstRow, air.LastRow} {
		for _, b := range bs {
			if b.Col < 0 || b.Col >= air.Width {
				return nil, fmt.Errorf("stark: boundary column %d out of range", b.Col)
			}
		}
	}
	if logN < 2 {
		return nil, errors.New("stark: trace must have at least 4 rows")
	}
	return &Stark{AIR: air, N: 1 << logN, LogN: logN, cfg: cfg}, nil
}

// transcript seeds the challenger with the instance description so proofs
// bind to the AIR shape and boundary values.
func (s *Stark) transcript() *poseidon.Challenger {
	ch := poseidon.NewChallenger()
	ch.Observe(field.New(uint64(s.Width)))
	ch.Observe(field.New(uint64(s.LogN)))
	ch.Observe(field.New(uint64(len(s.Transitions))))
	for _, bs := range [][]Boundary{s.FirstRow, s.LastRow} {
		for _, b := range bs {
			ch.Observe(field.New(uint64(b.Col)))
			ch.Observe(b.Value)
		}
	}
	return ch
}

// Prove generates a proof that columns (column-major, each of length N)
// satisfy the AIR.
func (s *Stark) Prove(columns [][]field.Element, rec *trace.Recorder) (*Proof, error) {
	return s.ProveContext(context.Background(), columns, rec)
}

// ProveContext is Prove with cooperative cancellation: the context is
// checked at each phase boundary (trace sanity, trace commitment,
// quotient, openings, FRI — including the proof-of-work grind), so
// servers can impose timeouts on multi-second proofs. On cancellation it
// returns ctx.Err() and leaves shared caches usable.
func (s *Stark) ProveContext(ctx context.Context, columns [][]field.Element,
	rec *trace.Recorder) (*Proof, error) {

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(columns) != s.Width {
		return nil, fmt.Errorf("stark: %d columns, want %d", len(columns), s.Width)
	}
	n := s.N
	for i, col := range columns {
		if len(col) != n {
			return nil, fmt.Errorf("stark: column %d has %d rows, want %d", i, len(col), n)
		}
	}

	// Sanity check constraints before committing anything.
	local := func(r int) func(int) field.Element {
		return func(c int) field.Element { return columns[c][r] }
	}
	for r := 0; r < n-1; r++ {
		for i, tr := range s.Transitions {
			if tr.EvalBase(local(r), local(r+1)) != 0 {
				return nil, fmt.Errorf("stark: transition %d violated at row %d", i, r)
			}
		}
	}
	for _, b := range s.FirstRow {
		if columns[b.Col][0] != b.Value {
			return nil, fmt.Errorf("stark: first-row constraint on column %d violated", b.Col)
		}
	}
	for _, b := range s.LastRow {
		if columns[b.Col][n-1] != b.Value {
			return nil, fmt.Errorf("stark: last-row constraint on column %d violated", b.Col)
		}
	}

	ch := s.transcript()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	traceBatch, err := fri.CommitValuesContext(ctx, columns, s.cfg.RateBits, s.cfg.CapHeight, rec)
	if err != nil {
		return nil, err
	}
	observeCap(ch, traceBatch.Cap())
	alpha := ch.Sample()

	tChunks, err := s.computeQuotient(ctx, traceBatch, alpha, rec)
	if err != nil {
		return nil, err
	}
	quotBatch, err := fri.CommitCoeffsContext(ctx, tChunks, s.cfg.RateBits, s.cfg.CapHeight, rec)
	if err != nil {
		return nil, err
	}
	observeCap(ch, quotBatch.Cap())

	zeta := ch.SampleExt()
	g := field.PrimitiveRootOfUnity(s.LogN)
	zetaNext := field.ExtScalarMul(g, zeta)

	traceOpen, err := traceBatch.EvalAllContext(ctx, zeta, rec)
	if err != nil {
		return nil, err
	}
	traceNextOpen, err := traceBatch.EvalAllContext(ctx, zetaNext, rec)
	if err != nil {
		return nil, err
	}
	quotOpen, err := quotBatch.EvalAllContext(ctx, zeta, rec)
	if err != nil {
		return nil, err
	}
	observeOpenings(ch, traceOpen, traceNextOpen, quotOpen)

	oracles := []*fri.PolynomialBatch{traceBatch, quotBatch}
	groups := []fri.PointGroup{
		{Point: zeta, Oracles: []int{0, 1}},
		{Point: zetaNext, Oracles: []int{0}},
	}
	opened := fri.OpenedValues{
		{traceOpen, quotOpen},
		{traceNextOpen},
	}
	friProof, err := fri.ProveContext(ctx, oracles, groups, opened, ch, s.cfg, rec)
	if err != nil {
		return nil, err
	}

	proof := &Proof{
		TraceCap:      traceBatch.Cap(),
		QuotientCap:   quotBatch.Cap(),
		TraceOpen:     traceOpen,
		TraceNextOpen: traceNextOpen,
		QuotientOpen:  quotOpen,
		FRI:           friProof,
	}
	// Both batches are per-proof: with their caps copied and every opened
	// row copied by the FRI query phase, their pooled buffers go back for
	// the next proof.
	traceBatch.Release()
	quotBatch.Release()
	return proof, nil
}

// computeQuotient evaluates the α-combined constraint quotient
//
//	t(x) = Σ_i α^i trans_i(x)·(x − g^{N−1})/Z_H(x)
//	     + Σ_j α^... (col(x) − v)/(x − 1)  [first row]
//	     + Σ_k α^... (col(x) − v)/(x − g^{N−1})  [last row]
//
// on the coset g·H_{4N} and interpolates it into degree-N chunks.
// Per-column coset NTTs fan out as whole-column jobs; the per-point loop
// restarts its α walk at every j, so points split into pool chunks.
func (s *Stark) computeQuotient(ctx context.Context, traceBatch *fri.PolynomialBatch,
	alpha field.Element, rec *trace.Recorder) ([][]field.Element, error) {

	n := s.N
	d := 4 * n
	logD := s.LogN + 2
	shift := field.MultiplicativeGenerator

	cols := make([][]field.Element, s.Width)
	for i := range cols {
		cols[i] = make([]field.Element, d)
	}
	var err error
	rec.NTT(d, s.Width, false, true, false, func() {
		err = ntt.Columns(ctx, cols, traceBatch.Coeffs[:s.Width], ntt.Spec{Shift: shift})
	})
	if err != nil {
		return nil, err
	}

	t := make([]field.Element, d)
	rec.VecOp(d, s.Width, 4*(len(s.Transitions)+len(s.FirstRow)+len(s.LastRow)+2), func() {
		w := field.PrimitiveRootOfUnity(logD)
		rot := d / n
		gLast := field.Exp(field.PrimitiveRootOfUnity(s.LogN), uint64(n-1))

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
		firstInv := make([]field.Element, d)
		lastInv := make([]field.Element, d)
		err = parallel.For(ctx, d, quotGrain, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				zhInv[j] = field.Sub(xn[j%4], field.One)
				firstInv[j] = field.Sub(xs[j], field.One)
				lastInv[j] = field.Sub(xs[j], gLast)
			}
		})
		if err != nil {
			return
		}
		if err = field.BatchInverseCtx(ctx, zhInv); err != nil {
			return
		}
		if err = field.BatchInverseCtx(ctx, firstInv); err != nil {
			return
		}
		if err = field.BatchInverseCtx(ctx, lastInv); err != nil {
			return
		}

		err = parallel.For(ctx, d, quotGrain, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				localFn := func(c int) field.Element { return cols[c][j] }
				nextFn := func(c int) field.Element { return cols[c][(j+rot)%d] }

				a := field.One
				var sum field.Element
				// Transition constraints vanish on H \ {g^{N-1}}:
				// divisor Z_H(x)/(x − g^{N−1}).
				transDiv := field.Mul(field.Sub(xs[j], gLast), zhInv[j])
				for _, tr := range s.Transitions {
					v := tr.EvalBase(localFn, nextFn)
					sum = field.Add(sum, field.Mul(a, field.Mul(v, transDiv)))
					a = field.Mul(a, alpha)
				}
				for _, b := range s.FirstRow {
					v := field.Sub(cols[b.Col][j], b.Value)
					sum = field.Add(sum, field.Mul(a, field.Mul(v, firstInv[j])))
					a = field.Mul(a, alpha)
				}
				for _, b := range s.LastRow {
					v := field.Sub(cols[b.Col][j], b.Value)
					sum = field.Add(sum, field.Mul(a, field.Mul(v, lastInv[j])))
					a = field.Mul(a, alpha)
				}
				t[j] = sum
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
	for _, c := range tCoeffs[quotientChunks*n:] {
		if c != 0 {
			return nil, errors.New("stark: quotient degree exceeds bound — constraint system bug")
		}
	}
	chunks := make([][]field.Element, quotientChunks)
	for i := range chunks {
		chunks[i] = tCoeffs[i*n : (i+1)*n]
	}
	return chunks, nil
}

// ErrInvalidProof is the umbrella error wrapped by every verification
// failure (kept for backward compatibility). ErrMalformedProof and
// ErrProofRejected refine it with the shared prooferr taxonomy:
// structural violations (abuse/corruption) vs. cryptographic rejection
// (forgery or prover bug).
var (
	ErrInvalidProof   = errors.New("stark: invalid proof")
	ErrMalformedProof = fmt.Errorf("%w: %w", ErrInvalidProof, prooferr.ErrMalformedProof)
	ErrProofRejected  = fmt.Errorf("%w: %w", ErrInvalidProof, prooferr.ErrProofRejected)
)

// validateShape performs the structural validation of a decoded proof
// before any of its data is used.
func (s *Stark) validateShape(proof *Proof) error {
	if proof == nil {
		return fmt.Errorf("%w: nil proof", ErrMalformedProof)
	}
	if proof.FRI == nil {
		return fmt.Errorf("%w: missing FRI proof", ErrMalformedProof)
	}
	capSize := fri.CapSize(s.cfg, s.LogN+s.cfg.RateBits)
	if len(proof.TraceCap) != capSize {
		return fmt.Errorf("%w: trace cap has %d digests, want %d",
			ErrMalformedProof, len(proof.TraceCap), capSize)
	}
	if len(proof.QuotientCap) != capSize {
		return fmt.Errorf("%w: quotient cap has %d digests, want %d",
			ErrMalformedProof, len(proof.QuotientCap), capSize)
	}
	if len(proof.TraceOpen) != s.Width || len(proof.TraceNextOpen) != s.Width ||
		len(proof.QuotientOpen) != quotientChunks {
		return fmt.Errorf("%w: malformed openings", ErrMalformedProof)
	}
	return nil
}

// Verify checks a proof. Any error wraps ErrInvalidProof plus exactly one
// of ErrMalformedProof (shape violation) or ErrProofRejected
// (cryptographic failure); a panic slipping past the structural
// validation is converted to an error at this boundary as defense in
// depth.
func (s *Stark) Verify(proof *Proof) (err error) {
	defer prooferr.CatchPanic(&err, "stark")

	if err := s.validateShape(proof); err != nil {
		return err
	}
	n := uint64(s.N)

	ch := s.transcript()
	observeCap(ch, proof.TraceCap)
	alpha := ch.Sample()
	observeCap(ch, proof.QuotientCap)
	zeta := ch.SampleExt()
	g := field.PrimitiveRootOfUnity(s.LogN)
	zetaNext := field.ExtScalarMul(g, zeta)
	observeOpenings(ch, proof.TraceOpen, proof.TraceNextOpen, proof.QuotientOpen)

	zh := field.ExtSub(field.ExtExp(zeta, n), field.ExtOne)
	if zh.IsZero() {
		return fmt.Errorf("%w: ζ lies on the trace domain", ErrProofRejected)
	}
	gLast := field.Exp(g, n-1)

	a := field.ExtOne
	sum := field.ExtZero
	transDiv := field.ExtMul(
		field.ExtSub(zeta, field.FromBase(gLast)), field.ExtInverse(zh))
	for _, tr := range s.Transitions {
		v := tr.EvalExt(proof.TraceOpen, proof.TraceNextOpen)
		sum = field.ExtAdd(sum, field.ExtMul(a, field.ExtMul(v, transDiv)))
		a = field.ExtMul(a, field.FromBase(alpha))
	}
	firstInv := field.ExtInverse(field.ExtSub(zeta, field.ExtOne))
	for _, b := range s.FirstRow {
		v := field.ExtSub(proof.TraceOpen[b.Col], field.FromBase(b.Value))
		sum = field.ExtAdd(sum, field.ExtMul(a, field.ExtMul(v, firstInv)))
		a = field.ExtMul(a, field.FromBase(alpha))
	}
	lastInv := field.ExtInverse(field.ExtSub(zeta, field.FromBase(gLast)))
	for _, b := range s.LastRow {
		v := field.ExtSub(proof.TraceOpen[b.Col], field.FromBase(b.Value))
		sum = field.ExtAdd(sum, field.ExtMul(a, field.ExtMul(v, lastInv)))
		a = field.ExtMul(a, field.FromBase(alpha))
	}

	tZeta := field.ExtZero
	zetaN := field.ExtExp(zeta, n)
	pow := field.ExtOne
	for _, tc := range proof.QuotientOpen {
		tZeta = field.ExtAdd(tZeta, field.ExtMul(pow, tc))
		pow = field.ExtMul(pow, zetaN)
	}
	if sum != tZeta {
		return fmt.Errorf("%w: constraint equation fails at ζ", ErrProofRejected)
	}

	oracles := []fri.VerifierOracle{
		{Cap: proof.TraceCap, NumPolys: s.Width},
		{Cap: proof.QuotientCap, NumPolys: quotientChunks},
	}
	groups := []fri.PointGroup{
		{Point: zeta, Oracles: []int{0, 1}},
		{Point: zetaNext, Oracles: []int{0}},
	}
	opened := fri.OpenedValues{
		{proof.TraceOpen, proof.QuotientOpen},
		{proof.TraceNextOpen},
	}
	if err := fri.Verify(oracles, groups, opened, proof.FRI, ch, s.cfg, s.LogN); err != nil {
		// %w preserves the fri error's taxonomy class (shape vs. crypto).
		return fmt.Errorf("%w: %w", ErrInvalidProof, err)
	}
	return nil
}

func observeCap(ch *poseidon.Challenger, c merkle.Cap) {
	for _, h := range c {
		ch.ObserveHash(h)
	}
}

func observeOpenings(ch *poseidon.Challenger, groups ...[]field.Ext) {
	for _, g := range groups {
		for _, v := range g {
			ch.ObserveExt(v)
		}
	}
}
