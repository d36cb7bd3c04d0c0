package plonk

import (
	"context"
	"fmt"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/poseidon"
	"unizk/internal/trace"
)

// quotGrain is the chunk size for the per-point quotient kernels.
const quotGrain = 1 << 9

// quotientChunks is the number of degree-N pieces the quotient polynomial
// is split into. Constraints are kept at degree ≤ 4 (one partial-product
// factor times a 3-column group product, paper §5.4), so the quotient fits
// a 4N coset and three chunks.
const quotientChunks = 3

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
	for _, gen := range c.generators {
		gen(w)
	}
	if err := w.Err(); err != nil {
		return nil, err
	}

	n := c.N
	wires, pub, pi, err := c.wireColumns(ctx, w)
	if err != nil {
		return nil, err
	}

	// Sanity check every gate constraint before doing any expensive work.
	for rep := 0; rep < c.Reps; rep++ {
		sel := c.selectors[5*rep : 5*rep+5]
		for r := 0; r < n; r++ {
			v := gateEval(sel[0][r], sel[1][r], sel[2][r], sel[3][r], sel[4][r],
				wires[3*rep][r], wires[3*rep+1][r], wires[3*rep+2][r])
			if rep == 0 {
				v = field.Add(v, pi[r])
			}
			if v != 0 {
				return nil, fmt.Errorf("plonk: gate constraint violated at row %d rep %d", r, rep)
			}
		}
	}

	ch := poseidon.NewChallenger()
	observeCap(ch, c.constants.Cap())
	ch.ObserveSlice(pub)

	// --- Wires commitment (paper Fig. 7, "Wires Commitment"). ---
	wiresBatch, err := fri.CommitValuesContext(ctx, wires, c.cfg.RateBits, c.cfg.CapHeight, rec)
	if err != nil {
		return nil, err
	}
	observeCap(ch, wiresBatch.Cap())

	beta := ch.Sample()
	gamma := ch.Sample()

	// --- Grand product and chained partial products (paper §5.4). ---
	zPolys, err := c.computeZs(ctx, wires, beta, gamma, rec)
	if err != nil {
		return nil, err
	}
	zBatch, err := fri.CommitValuesContext(ctx, zPolys, c.cfg.RateBits, c.cfg.CapHeight, rec)
	if err != nil {
		return nil, err
	}
	observeCap(ch, zBatch.Cap())

	alpha := ch.Sample()

	// --- Quotient polynomial on the 4N coset. ---
	tChunks, err := c.computeQuotient(ctx, wiresBatch, zBatch, pi, beta, gamma, alpha, rec)
	if err != nil {
		return nil, err
	}
	quotBatch, err := fri.CommitCoeffsContext(ctx, tChunks, c.cfg.RateBits, c.cfg.CapHeight, rec)
	if err != nil {
		return nil, err
	}
	observeCap(ch, quotBatch.Cap())

	zeta := ch.SampleExt()
	g := field.PrimitiveRootOfUnity(c.LogN)
	zetaNext := field.ExtScalarMul(g, zeta)

	// --- Openings (paper Fig. 7, "Prove Openings"). ---
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	constOpen, err := c.constants.EvalAllContext(ctx, zeta, rec)
	if err != nil {
		return nil, err
	}
	wiresOpen, err := wiresBatch.EvalAllContext(ctx, zeta, rec)
	if err != nil {
		return nil, err
	}
	zsOpen, err := zBatch.EvalAllContext(ctx, zeta, rec)
	if err != nil {
		return nil, err
	}
	quotOpen, err := quotBatch.EvalAllContext(ctx, zeta, rec)
	if err != nil {
		return nil, err
	}
	zsNextOpen, err := zBatch.EvalAllContext(ctx, zetaNext, rec)
	if err != nil {
		return nil, err
	}
	observeOpenings(ch, constOpen, wiresOpen, zsOpen, quotOpen, zsNextOpen)

	oracles := []*fri.PolynomialBatch{c.constants, wiresBatch, zBatch, quotBatch}
	groups := []fri.PointGroup{
		{Point: zeta, Oracles: []int{0, 1, 2, 3}},
		{Point: zetaNext, Oracles: []int{2}},
	}
	opened := fri.OpenedValues{
		{constOpen, wiresOpen, zsOpen, quotOpen},
		{zsNextOpen},
	}
	friProof, err := fri.ProveContext(ctx, oracles, groups, opened, ch, c.cfg, rec)
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
		PublicInputs:  pub,
		FRI:           friProof,
	}
	// The per-proof batches are dead once their caps are copied into the
	// proof (the FRI query phase copied every opened row): their pooled
	// LDE columns, leaf arenas, and digest levels go back for the next
	// proof. The constants batch is circuit-lifetime and stays.
	wiresBatch.Release()
	zBatch.Release()
	quotBatch.Release()
	return proof, nil
}

// wireColumns materializes the witness: the wire columns, the public
// inputs, and the PI column (their negations on the first rows). It
// reads the witness map (concurrent reads only; generators have already
// run) and writes disjoint columns.
func (c *Circuit) wireColumns(ctx context.Context, w *Witness) (wires [][]field.Element, pub, pi []field.Element, err error) {
	n := c.N
	wires = make([][]field.Element, c.NumCols)
	if err := parallel.For(ctx, c.NumCols, 1, func(lo, hi int) {
		for col := lo; col < hi; col++ {
			wires[col] = make([]field.Element, n)
			for r := 0; r < n; r++ {
				wires[col][r] = c.wireValue(w, col, r)
			}
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

// commitForQuotient runs the generators and the prover's steps up to the
// quotient — wire materialization, the wires commitment, the grand
// product and its commitment — with the given β and γ in place of
// transcript challenges, and returns what computeQuotient reads besides
// the challenges.
func (c *Circuit) commitForQuotient(ctx context.Context, w *Witness, beta, gamma field.Element) (
	wiresBatch, zBatch *fri.PolynomialBatch, pi []field.Element, err error) {

	for _, gen := range c.generators {
		gen(w)
	}
	if err := w.Err(); err != nil {
		return nil, nil, nil, err
	}
	wires, _, pi, err := c.wireColumns(ctx, w)
	if err != nil {
		return nil, nil, nil, err
	}
	wiresBatch, err = fri.CommitValuesContext(ctx, wires, c.cfg.RateBits, c.cfg.CapHeight, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	zPolys, err := c.computeZs(ctx, wires, beta, gamma, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	zBatch, err = fri.CommitValuesContext(ctx, zPolys, c.cfg.RateBits, c.cfg.CapHeight, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return wiresBatch, zBatch, pi, nil
}

// QuotientKernel prepares a proof of w up to its quotient phase, with
// fixed challenges, and returns a function that reruns only that phase.
// The kernel trajectory (internal/bench/trajectory) uses it to time the
// quotient apart from the rest of the prover.
func (c *Circuit) QuotientKernel(w *Witness) (func(context.Context) error, error) {
	beta, gamma, alpha := field.New(0x9e3779b9), field.New(0x7f4a7c15), field.New(0x2545f491)
	wiresBatch, zBatch, pi, err := c.commitForQuotient(context.Background(), w, beta, gamma)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) error {
		_, err := c.computeQuotient(ctx, wiresBatch, zBatch, pi, beta, gamma, alpha, nil)
		return err
	}, nil
}

// computeZs builds the grand product Z = π_0 and the chained partial
// products π_1..π_{R-1}: the accumulator walks the slots row-major, one
// 3-column group at a time (Equations 1-2 of §5.4 with group-sized
// chunks), so that every constraint stays at degree 4. The group factors
// and their batch inversion are parallel; the partial-product walk itself
// is a serial prefix dependence and stays on one goroutine (the paper
// parallelizes it only by splitting the quotient into chunks, which is
// exactly the fg/gg precomputation above).
func (c *Circuit) computeZs(ctx context.Context, wires [][]field.Element,
	beta, gamma field.Element, rec *trace.Recorder) ([][]field.Element, error) {

	n := c.N
	var fg, gg [][]field.Element
	var err error
	rec.VecOp(n, 2*c.NumCols, 4*c.NumCols, func() {
		fg, gg, err = c.groupFactors(ctx, wires, beta, gamma)
		if err != nil {
			return
		}
		// Batch-invert all group denominators at once.
		flat := make([]field.Element, 0, n*c.Reps)
		for j := range gg {
			flat = append(flat, gg[j]...)
		}
		if err = field.BatchInverseCtx(ctx, flat); err != nil {
			return
		}
		for j := range gg {
			copy(gg[j], flat[j*n:(j+1)*n])
		}
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
				acc = field.Mul(acc, field.Mul(fg[j][r], gg[j][r]))
			}
		}
	})
	return zs, nil
}

// groupFactors computes fg_j[r] and gg_j[r]: the products over column
// group j of (w_c + β·id_c + γ) and (w_c + β·σ_c + γ). Rows are
// independent; each chunk seeds x = w^lo exactly.
func (c *Circuit) groupFactors(ctx context.Context, wires [][]field.Element,
	beta, gamma field.Element) (fg, gg [][]field.Element, err error) {

	n := c.N
	w := field.PrimitiveRootOfUnity(c.LogN)
	fg = make([][]field.Element, c.Reps)
	gg = make([][]field.Element, c.Reps)
	for j := 0; j < c.Reps; j++ {
		fg[j] = make([]field.Element, n)
		gg[j] = make([]field.Element, n)
	}
	err = parallel.For(ctx, n, quotGrain, func(lo, hi int) {
		x := field.Exp(w, uint64(lo))
		for r := lo; r < hi; r++ {
			for j := 0; j < c.Reps; j++ {
				fAcc, gAcc := field.One, field.One
				for k := 0; k < groupCols; k++ {
					col := groupCols*j + k
					id := field.Mul(c.ks[col], x)
					fAcc = field.Mul(fAcc, field.Add(field.Add(wires[col][r],
						field.Mul(beta, id)), gamma))
					gAcc = field.Mul(gAcc, field.Add(field.Add(wires[col][r],
						field.Mul(beta, c.sigmaVals[col][r])), gamma))
				}
				fg[j][r] = fAcc
				gg[j][r] = gAcc
			}
			x = field.Mul(x, w)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return fg, gg, nil
}

// computeQuotient evaluates the α-combined constraints on the coset
// g·H_4N, divides by Z_H pointwise, and interpolates the quotient,
// returning its degree-N chunks. The α powers cover, in order: the R gate
// constraints, the R permutation-chain constraints, and the Z boundary.
//
// The constraints are evaluated on committed LDE points, as in Plonky2:
// with RateBits ≥ 2 the first 4N entries of every committed LDE are the
// g·H_4N evaluations in bit-reversed order, since
// g·ω_M^br_M(i) = g·ω_4N^br_4N(i) for i < 4N. So the wires, Z and
// constant columns are read where they were committed, only the PI
// column is extended, and the loop runs over bit-reversed index i of the
// natural point br(i). The per-point evaluation restarts its α walk at
// every i, so points split cleanly into chunks.
func (c *Circuit) computeQuotient(ctx context.Context,
	wiresBatch, zBatch *fri.PolynomialBatch,
	pi []field.Element, beta, gamma, alpha field.Element,
	rec *trace.Recorder) ([][]field.Element, error) {

	n := c.N
	d := 4 * n
	logD := c.LogN + 2
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
	wiresD, zD := wiresBatch.LDE[:c.NumCols], zBatch.LDE[:c.Reps]
	selD, sigD := c.constants.LDE[:5*c.Reps], c.constants.LDE[5*c.Reps:8*c.Reps]
	numPolys := c.NumCols + c.Reps + 8*c.Reps + 1

	// Constraint evaluation — the "gate constraint evaluation" vector
	// kernel the paper highlights for data reuse (§5.4).
	t := make([]field.Element, d)
	rec.VecOp(d, numPolys, 30*c.Reps+12, func() {
		xs := ntt.CosetDomainBR(logD)
		rot := d / n // Z(g·x) is Z's coset evaluation rotated by D/N
		// x^N on the point of natural index j is g^N·ω_4^j: it depends
		// on j mod 4 only, so Z_H takes four values and four inversions
		// cover them.
		var xn, zhInv [4]field.Element
		w4 := field.PrimitiveRootOfUnity(2)
		acc := field.Exp(shift, uint64(n))
		for j := range xn {
			xn[j] = acc
			zhInv[j] = field.Inverse(field.Sub(acc, field.One))
			acc = field.Mul(acc, w4)
		}

		l1Den := make([]field.Element, d)
		nElem := field.New(uint64(n))
		err = parallel.For(ctx, d, quotGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				l1Den[i] = field.Mul(nElem, field.Sub(xs[i], field.One))
			}
		})
		if err != nil {
			return
		}
		if err = field.BatchInverseCtx(ctx, l1Den); err != nil {
			return
		}

		// The α accumulator restarts at every point, so points are fully
		// independent and the loop fans out over the pool.
		err = parallel.For(ctx, d, quotGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				j := ntt.BitReverse(i, logD)
				zh := field.Sub(xn[j%4], field.One)
				a := field.One
				var sum field.Element

				// Gate constraints, one per repetition.
				for rep := 0; rep < c.Reps; rep++ {
					gate := gateEval(selD[5*rep][i], selD[5*rep+1][i],
						selD[5*rep+2][i], selD[5*rep+3][i], selD[5*rep+4][i],
						wiresD[3*rep][i], wiresD[3*rep+1][i], wiresD[3*rep+2][i])
					if rep == 0 {
						gate = field.Add(gate, piD[i])
					}
					sum = field.Add(sum, field.Mul(a, gate))
					a = field.Mul(a, alpha)
				}

				// Permutation chain: π_{g+1}·gg_g = π_g·fg_g, with π_R = Z(g·x).
				for grp := 0; grp < c.Reps; grp++ {
					fAcc, gAcc := field.One, field.One
					for k := 0; k < groupCols; k++ {
						col := groupCols*grp + k
						id := field.Mul(c.ks[col], xs[i])
						fAcc = field.Mul(fAcc, field.Add(field.Add(wiresD[col][i],
							field.Mul(beta, id)), gamma))
						gAcc = field.Mul(gAcc, field.Add(field.Add(wiresD[col][i],
							field.Mul(beta, sigD[col][i])), gamma))
					}
					var next field.Element
					if grp == c.Reps-1 {
						next = zD[0][ntt.BitReverse((j+rot)%d, logD)]
					} else {
						next = zD[grp+1][i]
					}
					perm := field.Sub(field.Mul(next, gAcc), field.Mul(zD[grp][i], fAcc))
					sum = field.Add(sum, field.Mul(a, perm))
					a = field.Mul(a, alpha)
				}

				// Boundary: L1·(Z − 1).
				l1 := field.Mul(zh, l1Den[i])
				bound := field.Mul(l1, field.Sub(zD[0][i], field.One))
				sum = field.Add(sum, field.Mul(a, bound))

				t[i] = field.Mul(sum, zhInv[j%4])
			}
		})
	})
	if err != nil {
		return nil, err
	}

	rec.NTT(d, 1, true, true, true, func() {
		err = ntt.Transform(ctx, t, ntt.Spec{Inverse: true, Shift: shift, InBR: true})
	})
	if err != nil {
		return nil, err
	}
	for _, cc := range t[quotientChunks*n:] {
		if cc != 0 {
			return nil, fmt.Errorf("plonk: quotient degree exceeds bound — constraint system bug")
		}
	}

	chunks := make([][]field.Element, quotientChunks)
	for i := range chunks {
		chunks[i] = t[i*n : (i+1)*n]
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
