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
	// prog is every constraint compiled once (see constraints); prover
	// and verifier both run it.
	prog *program
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
	return &Stark{AIR: air, N: 1 << logN, LogN: logN, cfg: cfg, prog: compile(constraints(air))}, nil
}

// constraints lists every constraint of the AIR as an expression, in α
// order: the transitions, then col − v for each first-row and each
// last-row boundary.
func constraints(air AIR) []*Expr {
	exprs := append([]*Expr(nil), air.Transitions...)
	for _, bs := range [][]Boundary{air.FirstRow, air.LastRow} {
		for _, b := range bs {
			exprs = append(exprs, Sub(Col(b.Col), Const(b.Value)))
		}
	}
	return exprs
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
	if r, i, ok := s.firstViolation(columns); !ok {
		return nil, fmt.Errorf("stark: transition %d violated at row %d", i, r)
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
// Per-column coset NTTs fan out as whole-column jobs; the points split
// into pool chunks, and each chunk runs the compiled constraint program
// tile by tile.
func (s *Stark) computeQuotient(ctx context.Context, traceBatch *fri.PolynomialBatch,
	alpha field.Element, rec *trace.Recorder) ([][]field.Element, error) {

	n := s.N
	d := 4 * n
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
		var q *quotientTerms
		if q, err = s.newQuotientTerms(ctx, cols, alpha); err != nil {
			return
		}
		err = parallel.For(ctx, d, quotGrain, func(lo, hi int) {
			rf := s.prog.getRegs()
			q.tiles(rf, lo, hi, t[lo:hi])
			s.prog.putRegs(rf)
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

// newQuotientTerms precomputes the quotient's per-point divisors and its
// α powers on the coset columns cols.
func (s *Stark) newQuotientTerms(ctx context.Context, cols [][]field.Element,
	alpha field.Element) (*quotientTerms, error) {

	n := s.N
	d := 4 * n
	shift := field.MultiplicativeGenerator
	w := field.PrimitiveRootOfUnity(s.LogN + 2)
	firstAt := len(s.Transitions)
	q := &quotientTerms{
		prog:   s.prog,
		cols:   cols,
		rot:    d / n,
		bounds: [4]int{0, firstAt, firstAt + len(s.FirstRow), len(s.prog.outs)},
		gLast:  field.Exp(field.PrimitiveRootOfUnity(s.LogN), uint64(n-1)),
	}

	q.xs = make([]field.Element, d)
	err := parallel.For(ctx, d, quotGrain, func(lo, hi int) {
		x := field.Mul(shift, field.Exp(w, uint64(lo)))
		for j := lo; j < hi; j++ {
			q.xs[j] = x
			x = field.Mul(x, w)
		}
	})
	if err != nil {
		return nil, err
	}
	// x^N on the point of index j is g^N·ω_4^j: it depends on j mod 4
	// only, so Z_H takes four values on the coset and four inversions
	// cover them.
	xn := field.Exp(shift, uint64(n))
	i4 := field.Exp(w, uint64(n))
	for k := range q.zhInv {
		q.zhInv[k] = field.Inverse(field.Sub(xn, field.One))
		xn = field.Mul(xn, i4)
	}

	q.firstInv = make([]field.Element, d)
	q.lastInv = make([]field.Element, d)
	err = parallel.For(ctx, d, quotGrain, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			q.firstInv[j] = field.Sub(q.xs[j], field.One)
			q.lastInv[j] = field.Sub(q.xs[j], q.gLast)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := field.BatchInverseCtx(ctx, q.firstInv); err != nil {
		return nil, err
	}
	if err := field.BatchInverseCtx(ctx, q.lastInv); err != nil {
		return nil, err
	}

	q.pows = make([]field.Element, len(s.prog.outs))
	a := field.One
	for i := range q.pows {
		q.pows[i] = a
		a = field.Mul(a, alpha)
	}
	return q, nil
}

// quotientTerms holds what the quotient needs beyond the program's
// constraint values. The α-combination is factored by divisor,
//
//	t = transDiv·Σ α^i·c_i + firstInv·Σ α^k·(col_k − v_k) + lastInv·Σ α^k·(col_k − v_k),
//
// so each term costs one MulAdd over the tile. Transition constraints
// vanish on H \ {g^{N−1}}, so their divisor is
// transDiv = Z_H(x)/(x − g^{N−1}).
type quotientTerms struct {
	prog *program
	pows []field.Element // α^i for constraint i
	cols [][]field.Element
	rot  int // next-row offset on the coset
	// bounds splits the constraints by divisor: [bounds[g], bounds[g+1])
	// are the transitions, first-row and last-row boundaries for g = 0,
	// 1, 2.
	bounds   [4]int
	xs       []field.Element
	firstInv []field.Element
	lastInv  []field.Element
	zhInv    [4]field.Element // 1/Z_H on points j ≡ 0..3 mod 4
	gLast    field.Element
}

// tiles writes t[0:hi−lo] for points [lo, hi), one tile at a time: the
// program's run, then the α-combination term by term over the tile.
//
//unizklint:hotpath
func (q *quotientTerms) tiles(rf *regFile, lo, hi int, t []field.Element) {
	for t0 := lo; t0 < hi; t0 += tile {
		t1 := min(t0+tile, hi)
		n := t1 - t0
		q.prog.run(rf, q.cols, q.rot, t0, t1)
		for g := range rf.acc {
			acc := rf.acc[g][:n]
			clear(acc)
			for i := q.bounds[g]; i < q.bounds[g+1]; i++ {
				pw := q.pows[i]
				for k, v := range q.prog.out(rf, i)[:n] {
					acc[k] = field.MulAdd(pw, v, acc[k])
				}
			}
		}
		at, af, al := rf.acc[0][:n], rf.acc[1][:n], rf.acc[2][:n]
		for k := 0; k < n; k++ {
			j := t0 + k
			transDiv := field.Mul(field.Sub(q.xs[j], q.gLast), q.zhInv[j%4])
			t[j-lo] = field.MulAdd(transDiv, at[k],
				field.MulAdd(q.firstInv[j], af[k], field.Mul(q.lastInv[j], al[k])))
		}
	}
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
	firstInv := field.ExtInverse(field.ExtSub(zeta, field.ExtOne))
	lastInv := field.ExtInverse(field.ExtSub(zeta, field.FromBase(gLast)))
	firstAt := len(s.Transitions)
	lastAt := firstAt + len(s.FirstRow)
	for i, v := range s.prog.evalExt(proof.TraceOpen, proof.TraceNextOpen) {
		div := transDiv
		if i >= lastAt {
			div = lastInv
		} else if i >= firstAt {
			div = firstInv
		}
		sum = field.ExtAdd(sum, field.ExtMul(a, field.ExtMul(v, div)))
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

// firstViolation runs the constraint program over the trace's adjacent
// row pairs (r, r+1), r < N−1, and returns the first row, and the first
// transition on it, that does not vanish; ok is true if none. The
// boundary constraints, which hold on one row only, are not checked.
func (s *Stark) firstViolation(columns [][]field.Element) (row, tr int, ok bool) {
	rf := s.prog.getRegs()
	defer s.prog.putRegs(rf)
	for lo := 0; lo < s.N-1; lo += tile {
		hi := min(lo+tile, s.N-1)
		s.prog.run(rf, columns, 1, lo, hi)
		for k := 0; k < hi-lo; k++ {
			for i := range s.Transitions {
				if s.prog.out(rf, i)[k] != 0 {
					return lo + k, i, false
				}
			}
		}
	}
	return 0, 0, true
}

// QuotientKernel commits columns and returns a function that reruns only
// the quotient phase, with a fixed α. The kernel trajectory
// (internal/bench/trajectory) uses it to time the quotient apart from
// the rest of the prover.
func (s *Stark) QuotientKernel(columns [][]field.Element) (func(context.Context) error, error) {
	traceBatch, err := fri.CommitValuesContext(context.Background(), columns, s.cfg.RateBits, s.cfg.CapHeight, nil)
	if err != nil {
		return nil, err
	}
	alpha := field.New(0x2545f491)
	return func(ctx context.Context) error {
		_, err := s.computeQuotient(ctx, traceBatch, alpha, nil)
		return err
	}, nil
}
