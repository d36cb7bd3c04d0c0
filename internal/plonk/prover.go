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
	ch := poseidon.NewChallenger()
	ch.ObserveCap(c.constants.Cap())
	tr, err := c.commitTrace(ctx, w, rec, func(pub []field.Element, wiresCap merkle.Cap) (beta, gamma field.Element) {
		ch.ObserveSlice(pub)
		ch.ObserveCap(wiresCap)
		return ch.Sample(), ch.Sample()
	})
	if err != nil {
		return nil, err
	}
	wiresBatch, zBatch := tr.wires, tr.zs
	ch.ObserveCap(zBatch.Cap())
	alpha := ch.Sample()

	// --- Quotient polynomial on the 4N coset. ---
	tChunks, err := c.computeQuotient(ctx, tr, alpha, rec)
	if err != nil {
		return nil, err
	}
	quotBatch, err := fri.CommitCoeffs(ctx, tChunks, c.cfg.RateBits, c.cfg.CapHeight, rec)
	if err != nil {
		return nil, err
	}
	ch.ObserveCap(quotBatch.Cap())

	zeta := ch.SampleExt()
	g := field.PrimitiveRootOfUnity(c.LogN)
	zetaNext := field.ExtScalarMul(g, zeta)

	// --- Openings (paper Fig. 7, "Prove Openings"). ---
	open := func(b *fri.PolynomialBatch, z field.Ext) []field.Ext {
		if err != nil {
			return nil
		}
		var v []field.Ext
		v, err = b.EvalAll(ctx, z, rec)
		return v
	}
	constOpen, wiresOpen, zsOpen := open(c.constants, zeta), open(wiresBatch, zeta), open(zBatch, zeta)
	quotOpen, zsNextOpen := open(quotBatch, zeta), open(zBatch, zetaNext)
	if err != nil {
		return nil, err
	}
	ch.ObserveExts(constOpen, wiresOpen, zsOpen, quotOpen, zsNextOpen)

	oracles := []*fri.PolynomialBatch{c.constants, wiresBatch, zBatch, quotBatch}
	groups := []fri.PointGroup{
		{Point: zeta, Oracles: []int{0, 1, 2, 3}},
		{Point: zetaNext, Oracles: []int{2}},
	}
	opened := fri.OpenedValues{
		{constOpen, wiresOpen, zsOpen, quotOpen},
		{zsNextOpen},
	}
	friProof, err := fri.Prove(ctx, oracles, groups, opened, ch, c.cfg, rec)
	if err != nil {
		return nil, err
	}

	proof := &Proof{
		WiresCap:      wiresBatch.Cap(),
		ZCap:          zBatch.Cap(),
		QuotientCap:   quotBatch.Cap(),
		ConstantsOpen: constOpen,
		WiresOpen:     wiresOpen,
		ZsOpen:        zsOpen,
		ZsNextOpen:    zsNextOpen,
		QuotientOpen:  quotOpen,
		PublicInputs:  tr.pub,
		FRI:           friProof,
	}
	// The per-proof batches are dead once their caps are copied into the
	// proof (the FRI query phase copied every opened row): their pooled
	// LDE columns and digest levels go back for the next
	// proof. The constants batch is circuit-lifetime and stays.
	wiresBatch.Release()
	zBatch.Release()
	quotBatch.Release()
	return proof, nil
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

// committed is the prover's state once the grand product is committed:
// what the quotient reads besides α.
type committed struct {
	wires, zs   *fri.PolynomialBatch
	pub, pi     []field.Element
	beta, gamma field.Element
}

// commitTrace runs the generators and the prover's steps up to the
// quotient: wire materialization, the gate check, the wires commitment
// (paper Fig. 7), and the grand product (§5.4) and its commitment. draw
// observes the public inputs and the wires cap and returns β and γ.
func (c *Circuit) commitTrace(ctx context.Context, w *Witness, rec *trace.Recorder,
	draw func(pub []field.Element, wiresCap merkle.Cap) (beta, gamma field.Element)) (*committed, error) {

	wires, pub, pi, err := c.generate(ctx, w)
	if err != nil {
		return nil, err
	}
	// Sanity check every gate constraint before doing any expensive work.
	rows := c.traceColumns(wires, pi)
	if row, rep, ok := c.gateProg.Violation(rows, nil); !ok {
		return nil, fmt.Errorf("plonk: gate constraint violated at row %d rep %d", row, rep)
	}
	tr := &committed{pub: pub, pi: pi}
	if tr.wires, err = fri.CommitValues(ctx, wires, c.cfg.RateBits, c.cfg.CapHeight, rec); err != nil {
		return nil, err
	}
	tr.beta, tr.gamma = draw(pub, tr.wires.Cap())
	zPolys, err := c.computeZs(ctx, rows, tr.beta, tr.gamma, rec)
	if err != nil {
		return nil, err
	}
	if tr.zs, err = fri.CommitValues(ctx, zPolys, c.cfg.RateBits, c.cfg.CapHeight, rec); err != nil {
		return nil, err
	}
	return tr, nil
}

// QuotientKernel prepares a proof of w up to its quotient phase, with
// fixed challenges, and returns a function that reruns only that phase.
// The kernel trajectory (internal/bench/trajectory) uses it to time the
// quotient apart from the rest of the prover.
func (c *Circuit) QuotientKernel(w *Witness) (func(context.Context) error, error) {
	tr, err := c.commitTrace(context.Background(), w, nil, func([]field.Element, merkle.Cap) (field.Element, field.Element) {
		return field.New(0x9e3779b9), field.New(0x7f4a7c15)
	})
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) error {
		_, err := c.computeQuotient(ctx, tr, field.New(0x2545f491), nil)
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
// extended, and x is the cached bit-reversed coset domain.
func (c *Circuit) computeQuotient(ctx context.Context, tr *committed, alpha field.Element,
	rec *trace.Recorder) ([][]field.Element, error) {

	n := c.N
	d := 4 * n
	shift := field.MultiplicativeGenerator

	piD := make([]field.Element, d)
	copy(piD, tr.pi)
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

	cols := slices.Concat(c.constants.LDE[:8*c.Reps], tr.wires.LDE[:c.NumCols], tr.zs.LDE[:c.Reps],
		[][]field.Element{piD, ntt.CosetDomainBR(c.LogN + 2)})
	return c.prog.Quotient(ctx, constraint.BitReversed(cols), []field.Element{tr.beta, tr.gamma}, alpha, rec)
}
