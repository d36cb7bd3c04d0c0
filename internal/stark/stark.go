package stark

import (
	"context"
	"errors"
	"fmt"
	"unsafe"

	"unizk/internal/constraint"
	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/piop"
	"unizk/internal/poseidon"
	"unizk/internal/prooferr"
	"unizk/internal/trace"
)

// maxConstraintDegree bounds transition constraint degree so the quotient
// fits in constraint.QuotientChunks degree-N chunks on a 4N coset.
const maxConstraintDegree = 4

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
	Transitions []*constraint.Expr
	// FirstRow and LastRow are the boundary constraints.
	FirstRow []Boundary
	LastRow  []Boundary
}

// Stark binds an AIR to a trace length and FRI configuration.
type Stark struct {
	AIR
	N, LogN int
	cfg     fri.Config
	// prog is every constraint compiled once (see constraints); the
	// trace check, the quotient and the verifier all run it.
	prog *constraint.Program
}

// SecurityBits is the proof's soundness in bits: the least of FRI's
// term and the PIOP's, α over the AIR's constraints and ζ over the
// quotient of degree maxConstraintDegree·N; a STARK has no permutation
// argument (see fri.Config.ProofSecurityBits).
func (s *Stark) SecurityBits() int {
	return s.cfg.ProofSecurityBits(0, s.prog.Len(), maxConstraintDegree, s.LogN)
}

// ResidentBytes is the heap the Stark keeps alive: its compiled
// constraint program and the AIR's boundary tables. The transition
// expression trees are built per workload and not counted.
func (s *Stark) ResidentBytes() int64 {
	return int64(unsafe.Sizeof(*s)) + s.prog.ResidentBytes() +
		int64(cap(s.FirstRow)+cap(s.LastRow))*int64(unsafe.Sizeof(Boundary{}))
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
	return &Stark{AIR: air, N: 1 << logN, LogN: logN, cfg: cfg, prog: constraint.Compile(logN, constraints(air))}, nil
}

// constraints lists every constraint of the AIR, in α order: the
// transitions, then col − v for each first-row and each last-row
// boundary.
func constraints(air AIR) []constraint.Constraint {
	var cs []constraint.Constraint
	for _, tr := range air.Transitions {
		cs = append(cs, constraint.Constraint{Expr: tr, Class: constraint.Transition})
	}
	boundaries := func(bs []Boundary, class constraint.Class) {
		for _, b := range bs {
			e := constraint.Sub(constraint.Col(b.Col), constraint.Const(b.Value))
			cs = append(cs, constraint.Constraint{Expr: e, Class: class})
		}
	}
	boundaries(air.FirstRow, constraint.FirstRow)
	boundaries(air.LastRow, constraint.LastRow)
	return cs
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
	// Boundaries are numbered first-row then last-row, after the
	// transitions.
	if r, i, ok := s.prog.Violation(columns, nil); !ok {
		if i < len(s.Transitions) {
			return nil, fmt.Errorf("stark: transition %d violated at row %d", i, r)
		}
		return nil, fmt.Errorf("stark: boundary constraint %d violated at row %d", i-len(s.Transitions), r)
	}

	caps, open, friProof, err := s.iop().Prove(ctx, s.transcript(), piop.Prover{
		Round: func(context.Context, int, []field.Element) ([][]field.Element, error) { return columns, nil },
		Quotient: func(ctx context.Context, oracles []*fri.PolynomialBatch, cs []field.Element) ([][]field.Element, error) {
			return s.computeQuotient(ctx, oracles[0], cs[0], rec)
		},
	}, rec)
	if err != nil {
		return nil, err
	}
	return &Proof{
		TraceCap: caps[0], QuotientCap: caps[1],
		TraceOpen: open[0], TraceNextOpen: open[1], QuotientOpen: open[2],
		FRI: friProof,
	}, nil
}

// iop is the AIR's round declaration (paper Fig. 7): the trace, then α;
// the quotient. Its openings are observed by oracle: the trace at ζ and
// g·ζ, then the quotient at ζ.
func (s *Stark) iop() *piop.IOP {
	return &piop.IOP{
		LogN:     s.LogN,
		Cfg:      s.cfg,
		Rounds:   []piop.Round{{Width: s.Width, Challenges: 1}},
		Openings: []piop.Opening{{Oracle: 0}, {Oracle: 0, Rotation: 1}, {Oracle: 1}},
		Invalid:  ErrInvalidProof,
	}
}

// computeQuotient evaluates the trace columns on the coset g·H_4N in
// bit-reversed order and runs the quotient driver on them:
//
//	t(x) = Σ_i α^i trans_i(x)·(x − g^{N−1})/Z_H(x)
//	     + Σ_j α^... (col(x) − v)/(x − 1)  [first row]
//	     + Σ_k α^... (col(x) − v)/(x − g^{N−1})  [last row]
//
// The committed LDE holds the first M = N·2^RateBits points of that
// order, so they are copied. In bit-reversed order the points M..2M-1
// of g·H_4N are the coset g·ω_2M·H_M, itself in bit-reversed order, so
// while M < 4N one coset transform per column fills the next M points
// and M doubles: at Starky's rate 1 that is one size-2N transform, half
// the extension, where the whole coset would take a size-4N one.
func (s *Stark) computeQuotient(ctx context.Context, traceBatch *fri.PolynomialBatch,
	alpha field.Element, rec *trace.Recorder) ([][]field.Element, error) {

	d := 4 * s.N
	m := min(len(traceBatch.LDE[0]), d)
	cols := make([][]field.Element, s.Width)
	for i := range cols {
		cols[i] = make([]field.Element, d)
		copy(cols[i], traceBatch.LDE[i][:m])
	}
	next := make([][]field.Element, s.Width)
	var err error
	for ; m < d && err == nil; m *= 2 {
		for i, c := range cols {
			next[i] = c[m : 2*m]
		}
		shift := field.Mul(field.MultiplicativeGenerator, field.PrimitiveRootOfUnity(ntt.Log2(2*m)))
		rec.NTT(m, s.Width, false, true, true, func() {
			err = ntt.Columns(ctx, next, traceBatch.Coeffs[:s.Width], ntt.Spec{Shift: shift, OutBR: true})
		})
	}
	if err != nil {
		return nil, err
	}
	return s.prog.Quotient(ctx, constraint.BitReversed(cols), nil, alpha, rec)
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

// Verify checks a proof. Any error wraps ErrInvalidProof plus exactly one
// of ErrMalformedProof (shape violation) or ErrProofRejected
// (cryptographic failure); a panic slipping past the structural
// validation is converted to an error at this boundary as defense in
// depth.
func (s *Stark) Verify(proof *Proof) (err error) {
	defer prooferr.CatchPanic(&err, "stark")

	r, err := s.Replay(proof)
	if err != nil {
		return err
	}
	return r.Verify(proof.FRI, func(cs []field.Element, zeta field.Ext) error {
		if s.prog.EvalExt(proof.TraceOpen, proof.TraceNextOpen, nil, cs[0], zeta) != s.prog.QuotientAt(proof.QuotientOpen, zeta) {
			return fmt.Errorf("%w: constraint equation fails at ζ", ErrProofRejected)
		}
		return nil
	})
}

// Replay checks that the proof and its FRI proof are present and replays
// its transcript on the AIR's declaration: α and ζ, and fri.Verify's
// arguments.
func (s *Stark) Replay(proof *Proof) (*piop.Replay, error) {
	if proof == nil || proof.FRI == nil {
		return nil, fmt.Errorf("%w: missing proof or FRI proof", ErrMalformedProof)
	}
	return s.iop().Replay(s.transcript(), []merkle.Cap{proof.TraceCap, proof.QuotientCap},
		[][]field.Ext{proof.TraceOpen, proof.TraceNextOpen, proof.QuotientOpen})
}

// QuotientKernel commits columns and returns a function that reruns only
// the quotient phase, with a fixed α. The kernel trajectory
// (internal/bench/trajectory) uses it to time the quotient apart from
// the rest of the prover.
func (s *Stark) QuotientKernel(columns [][]field.Element) (func(context.Context) error, error) {
	traceBatch, err := fri.CommitValues(context.Background(), columns, s.cfg.RateBits, s.cfg.CapHeight, nil)
	if err != nil {
		return nil, err
	}
	alpha := field.New(0x2545f491)
	return func(ctx context.Context) error {
		_, err := s.computeQuotient(ctx, traceBatch, alpha, nil)
		return err
	}, nil
}
