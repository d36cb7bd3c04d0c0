package plonk

import (
	"context"
	"fmt"
	"slices"

	"unizk/internal/constraint"
	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/piop"
	"unizk/internal/poseidon"
	"unizk/internal/trace"
)

// groupCols is the number of wire columns per permutation chunk: each
// partial-product step folds one 3-column group (the software analogue of
// the paper's 8-element quotient chunks, sized to the degree budget).
const groupCols = 3

// Proof is a Plonky2-style proof.
type Proof struct {
	WiresCap, ZCap, QuotientCap merkle.Cap

	// Openings at ζ. ZsOpen covers the grand product Z and the chained
	// partial products π_1..π_{R-1}; ZsNextOpen is the same batch at g·ζ.
	ConstantsOpen []field.Ext
	WiresOpen     []field.Ext
	ZsOpen        []field.Ext
	ZsNextOpen    []field.Ext
	QuotientOpen  []field.Ext

	PublicInputs []field.Element

	FRI *fri.Proof
}

// Prove generates a proof that the witness satisfies the circuit. The
// caller must have set all input targets; generators are run here. The
// recorder, if non-nil, captures the kernel computation graph and CPU time
// per kernel class (paper §5.5 / Table 1).
func (c *Circuit) Prove(w *Witness, rec *trace.Recorder) (*Proof, error) {
	return c.ProveContext(context.Background(), w, rec)
}

// ProveContext is Prove with cooperative cancellation: the context is
// checked at each phase boundary (witness generation, wires commitment,
// grand product, quotient, openings, FRI — including the proof-of-work
// grind), so servers can impose timeouts on multi-second proofs. On
// cancellation it returns ctx.Err(); all shared caches (NTT twiddles,
// Poseidon constants) stay consistent because phases never publish
// partial state.
func (c *Circuit) ProveContext(ctx context.Context, w *Witness, rec *trace.Recorder) (*Proof, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if w.circuit != c {
		return nil, fmt.Errorf("plonk: witness built for a different circuit")
	}
	pr, pub, err := c.prover(ctx, w, rec)
	if err != nil {
		return nil, err
	}
	caps, open, friProof, err := declare(c.LogN, c.Reps, c.cfg).Prove(ctx, seed(c.constants.Cap(), pub), pr, rec)
	if err != nil {
		return nil, err
	}
	return &Proof{
		WiresCap: caps[0], ZCap: caps[1], QuotientCap: caps[2],
		ConstantsOpen: open[0], WiresOpen: open[1], ZsOpen: open[2], QuotientOpen: open[3], ZsNextOpen: open[4],
		PublicInputs: pub, FRI: friProof,
	}, nil
}

// declare is a circuit's round declaration (paper Fig. 7): the
// constants (oracle 0) are preprocessed; the wires (1), then β and γ; the
// grand product and its partial products (2), then α; the quotient (3).
// Its openings are observed grouped by point: every oracle at ζ, then Z
// at g·ζ. Proof and its encoding keep their own field order.
func declare(logN, reps int, cfg fri.Config) *piop.IOP {
	return &piop.IOP{
		LogN:         logN,
		Cfg:          cfg,
		Preprocessed: []int{8 * reps},
		Rounds:       []piop.Round{{Width: numWires * reps, Challenges: 2}, {Width: reps, Challenges: 1}},
		Openings:     []piop.Opening{{Oracle: 0}, {Oracle: 1}, {Oracle: 2}, {Oracle: 3}, {Oracle: 2, Rotation: 1}},
		Invalid:      ErrInvalidProof,
	}
}

// seed starts a circuit's transcript: the constants cap, then the public
// inputs.
func seed(constantsCap merkle.Cap, pub []field.Element) *poseidon.Challenger {
	ch := poseidon.NewChallenger()
	ch.ObserveCap(constantsCap)
	ch.ObserveSlice(pub)
	return ch
}

// prover runs the generators on w, materializes the witness, checks every
// gate, and returns the prover's side of the declaration with the public
// inputs: round 0 commits the wire columns, round 1 the grand product
// under β and γ (§5.4), and the quotient reads the committed LDEs under α.
func (c *Circuit) prover(ctx context.Context, w *Witness, rec *trace.Recorder) (piop.Prover, []field.Element, error) {
	wires, pub, pi, err := c.generate(ctx, w)
	if err != nil {
		return piop.Prover{}, nil, err
	}
	// Sanity check every gate constraint before doing any expensive work.
	rows := c.traceColumns(wires, pi)
	if row, rep, ok := c.gateProg.Violation(rows, nil); !ok {
		return piop.Prover{}, nil, fmt.Errorf("plonk: gate constraint violated at row %d rep %d", row, rep)
	}
	return piop.Prover{
		Preprocessed: []*fri.PolynomialBatch{c.constants},
		Round: func(ctx context.Context, i int, cs []field.Element) ([][]field.Element, error) {
			if i == 0 {
				return wires, nil
			}
			return c.computeZs(ctx, rows, cs[0], cs[1], rec)
		},
		Quotient: func(ctx context.Context, oracles []*fri.PolynomialBatch, cs []field.Element) ([][]field.Element, error) {
			return c.computeQuotient(ctx, oracles, pi, cs, rec)
		},
	}, pub, nil
}

// wireColumns materializes the witness: the wire columns, the public
// inputs, and the PI column (their negations on the first rows). Each
// column is a gather of the class values through the class table
// (concurrent reads only; generators have already run) into its own
// slice.
func (c *Circuit) wireColumns(ctx context.Context, w *Witness) (wires [][]field.Element, pub, pi []field.Element, err error) {
	n := c.N
	wires = make([][]field.Element, c.NumCols)
	if err := parallel.For(ctx, c.NumCols, 1, func(lo, hi int) {
		for col := lo; col < hi; col++ {
			// Column 3·rep + wire holds slots (rep·N + r)·3 + wire.
			class := c.class[numWires*n*(col/numWires)+col%numWires:]
			column := make([]field.Element, n)
			for r := range column {
				column[r] = w.values[class[numWires*r]]
			}
			wires[col] = column
		}
	}); err != nil {
		return nil, nil, nil, err
	}
	pub = make([]field.Element, c.NumPublic)
	pi = make([]field.Element, n)
	for i, t := range c.pubTargets {
		pub[i] = w.Get(t)
		pi[i] = field.Neg(pub[i])
	}
	return wires, pub, pi, nil
}

// generate runs the circuit's generators on w and materializes the
// witness (see wireColumns).
func (c *Circuit) generate(ctx context.Context, w *Witness) (wires [][]field.Element, pub, pi []field.Element, err error) {
	for _, gen := range c.generators {
		gen(w)
	}
	if err := w.Err(); err != nil {
		return nil, nil, nil, err
	}
	return c.wireColumns(ctx, w)
}

// QuotientKernel prepares a proof of w up to its quotient phase and
// returns a function that reruns only that phase. The kernel trajectory
// (internal/bench/trajectory) uses it to time the quotient apart from the
// rest of the prover.
func (c *Circuit) QuotientKernel(w *Witness) (func(context.Context) error, error) {
	ctx := context.Background()
	pr, pub, err := c.prover(ctx, w, nil)
	if err != nil {
		return nil, err
	}
	oracles, cs, err := declare(c.LogN, c.Reps, c.cfg).Commit(ctx, seed(c.constants.Cap(), pub), pr, nil)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) error {
		_, err := pr.Quotient(ctx, oracles, cs)
		return err
	}, nil
}

// WitnessKernel returns a function that clones w, runs the generators on
// the clone and materializes its wire columns: the witness phase of a
// proof, which the kernel trajectory (internal/bench/trajectory) times
// apart from the rest of the prover. w itself is never written.
func (c *Circuit) WitnessKernel(w *Witness) func(context.Context) error {
	return func(ctx context.Context) error {
		_, _, _, err := c.generate(ctx, w.Clone())
		return err
	}
}

// computeZs builds the grand product Z = π_0 and the chained partial
// products π_1..π_{R-1}: the accumulator walks the slots row-major, one
// 3-column group at a time (Equations 1-2 of §5.4 with group-sized
// chunks), so that every constraint stays at degree 4. The group
// factors — factorProg over the trace — and their batch inversion are
// parallel; the partial-product walk itself is a serial prefix
// dependence and stays on one goroutine (the paper parallelizes it only
// by splitting the quotient into chunks, which is exactly the factor
// precomputation).
func (c *Circuit) computeZs(ctx context.Context, rows [][]field.Element,
	beta, gamma field.Element, rec *trace.Recorder) ([][]field.Element, error) {

	n := c.N
	// fg[j] is f_j and fg[R+j] is 1/g_j, all in one buffer so the g_j
	// invert as one batch.
	flat := make([]field.Element, 2*c.Reps*n)
	fg := make([][]field.Element, 2*c.Reps)
	for j := range fg {
		fg[j] = flat[j*n : (j+1)*n]
	}
	var err error
	rec.VecOp(n, 2*c.NumCols, 4*c.NumCols, func() {
		if err = c.factorProg.Eval(ctx, rows, []field.Element{beta, gamma}, fg); err != nil {
			return
		}
		err = field.BatchInverseCtx(ctx, flat[c.Reps*n:])
	})
	if err != nil {
		return nil, err
	}

	zs := make([][]field.Element, c.Reps)
	for j := range zs {
		zs[j] = make([]field.Element, n)
	}
	rec.PartialProducts(n*c.Reps, func() {
		acc := field.One
		for r := 0; r < n; r++ {
			for j := 0; j < c.Reps; j++ {
				zs[j][r] = acc
				acc = field.Mul(acc, field.Mul(fg[j][r], fg[c.Reps+j][r]))
			}
		}
	})
	return zs, nil
}

// computeQuotient runs the quotient driver on the committed LDE points,
// as in Plonky2: with RateBits ≥ 2 the first 4N entries of every
// committed LDE are the g·H_4N evaluations in bit-reversed order, since
// g·ω_M^br_M(i) = g·ω_4N^br_4N(i) for i < 4N. So the constants, wires
// and Z columns are read where they were committed, only the PI column is
// extended, and x is the cached bit-reversed coset domain. cs holds β, γ
// and α.
func (c *Circuit) computeQuotient(ctx context.Context, oracles []*fri.PolynomialBatch, pi []field.Element,
	cs []field.Element, rec *trace.Recorder) ([][]field.Element, error) {

	n := c.N
	d := 4 * n
	shift := field.MultiplicativeGenerator

	piD := make([]field.Element, d)
	copy(piD, pi)
	var err error
	rec.NTT(n, 1, true, false, false, func() {
		err = ntt.Transform(ctx, piD[:n], ntt.Spec{Inverse: true})
	})
	if err != nil {
		return nil, err
	}
	rec.NTT(d, 1, false, true, true, func() {
		err = ntt.Transform(ctx, piD, ntt.Spec{Shift: shift, OutBR: true})
	})
	if err != nil {
		return nil, err
	}

	cols := slices.Concat(oracles[0].LDE[:8*c.Reps], oracles[1].LDE[:c.NumCols], oracles[2].LDE[:c.Reps],
		[][]field.Element{piD, ntt.CosetDomainBR(c.LogN + 2)})
	return c.prog.Quotient(ctx, constraint.BitReversed(cols), cs[:2], cs[2], rec)
}
