package fri

import (
	"context"
	"errors"
	"fmt"

	"unizk/internal/field"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/poly"
	"unizk/internal/poseidon"
	"unizk/internal/prooferr"
)

// VerifierOracle is the verifier's view of a committed batch: its Merkle
// cap and polynomial count.
type VerifierOracle struct {
	Cap      merkle.Cap
	NumPolys int
}

// Verification errors. ErrProofShape covers structural mismatches;
// ErrProofInvalid covers cryptographic check failures. Both wrap the
// shared taxonomy in internal/prooferr so callers can classify rejections
// uniformly across protocols.
var (
	ErrProofShape   = fmt.Errorf("fri: %w", prooferr.ErrMalformedProof)
	ErrProofInvalid = fmt.Errorf("fri: %w", prooferr.ErrProofRejected)
)

// CapSize returns the expected Merkle cap size for a commitment over a
// domain of 2^logM leaves under cfg.
func CapSize(cfg Config, logM int) int {
	return 1 << layerCapHeight(cfg, 1<<logM)
}

// Verify checks a batched FRI opening proof. The challenger must be in the
// same transcript state as the prover's was when Prove was called. logN is
// the log2 of the committed polynomials' length.
func Verify(oracles []VerifierOracle, groups []PointGroup, opened OpenedValues,
	proof *Proof, ch *poseidon.Challenger, cfg Config, logN int) (err error) {

	defer prooferr.CatchPanic(&err, "fri")

	logM := logN + cfg.RateBits
	m := 1 << logM

	if proof == nil {
		return fmt.Errorf("%w: nil proof", ErrProofShape)
	}
	// Oracle caps are attacker-controlled (they come from the decoded
	// proof); their size must match the commitment parameters exactly or
	// the Merkle path-length arithmetic below is meaningless.
	for oi, o := range oracles {
		if len(o.Cap) != CapSize(cfg, logM) {
			return fmt.Errorf("%w: oracle %d cap size %d, want %d",
				ErrProofShape, oi, len(o.Cap), CapSize(cfg, logM))
		}
		if o.NumPolys <= 0 {
			return fmt.Errorf("%w: oracle %d has %d polynomials",
				ErrProofShape, oi, o.NumPolys)
		}
	}
	if len(opened) != len(groups) {
		return fmt.Errorf("%w: opened values for %d groups, want %d",
			ErrProofShape, len(opened), len(groups))
	}
	for gi, g := range groups {
		if len(opened[gi]) != len(g.Oracles) {
			return fmt.Errorf("%w: group %d opens %d oracles, want %d",
				ErrProofShape, gi, len(opened[gi]), len(g.Oracles))
		}
		for ki, oi := range g.Oracles {
			if oi < 0 || oi >= len(oracles) {
				return fmt.Errorf("%w: oracle index %d out of range", ErrProofShape, oi)
			}
			if len(opened[gi][ki]) != oracles[oi].NumPolys {
				return fmt.Errorf("%w: group %d oracle %d has %d openings, want %d",
					ErrProofShape, gi, oi, len(opened[gi][ki]), oracles[oi].NumPolys)
			}
		}
	}

	alpha := ch.SampleExt()

	// Re-derive the fold challenges. Domains smaller than the configured
	// final-polynomial bound need no folding at all.
	finalSize := 1 << (cfg.FinalPolyBits + cfg.RateBits)
	if finalSize > m {
		finalSize = m
	}
	numLayers := 0
	for s := m; s > finalSize; s >>= 1 {
		numLayers++
	}
	if len(proof.CommitPhaseCaps) != numLayers {
		return fmt.Errorf("%w: %d commit-phase caps, want %d",
			ErrProofShape, len(proof.CommitPhaseCaps), numLayers)
	}
	betas := make([]field.Ext, numLayers)
	layerSize := m
	for t := 0; t < numLayers; t++ {
		wantCap := 1 << layerCapHeight(cfg, layerSize/2)
		if len(proof.CommitPhaseCaps[t]) != wantCap {
			return fmt.Errorf("%w: layer %d cap size %d, want %d",
				ErrProofShape, t, len(proof.CommitPhaseCaps[t]), wantCap)
		}
		ch.ObserveCap(proof.CommitPhaseCaps[t])
		betas[t] = ch.SampleExt()
		layerSize >>= 1
	}

	if len(proof.FinalPoly) != finalSize>>cfg.RateBits {
		return fmt.Errorf("%w: final polynomial has %d coefficients, want %d",
			ErrProofShape, len(proof.FinalPoly), finalSize>>cfg.RateBits)
	}
	ch.ObserveExts(proof.FinalPoly)

	ch.Observe(proof.PowWitness)
	if ch.SampleBits(cfg.ProofOfWorkBits) != 0 {
		return fmt.Errorf("%w: proof-of-work witness fails", ErrProofInvalid)
	}

	if len(proof.QueryRounds) != cfg.NumQueries {
		return fmt.Errorf("%w: %d query rounds, want %d",
			ErrProofShape, len(proof.QueryRounds), cfg.NumQueries)
	}

	// The query indices depend on the transcript only, so all of them are
	// sampled before any query is checked.
	qp := &queryPhase{oracles: oracles, groups: groups, proof: proof, betas: betas,
		idxs: make([]int, len(proof.QueryRounds)), logM: logM, cfg: cfg}
	qp.wPow, qp.wInvPow = make([]field.Element, logM), make([]field.Element, logM)
	w := field.PrimitiveRootOfUnity(logM)
	wInv := field.Inverse(w)
	for j := range logM {
		qp.wPow[j], qp.wInvPow[j] = w, wInv
		w, wInv = field.Square(w), field.Square(wInv)
	}
	qp.powA, qp.powB, qp.ys = openingTables(groups, opened, alpha)
	for q := range qp.idxs {
		qp.idxs[q] = int(ch.SampleBits(logM))
	}
	return qp.run()
}

// run checks the queries in chunks of queryGrain across the worker pool,
// each chunk stopping at its first failure, and returns the lowest-indexed
// failure: the one a one-query-at-a-time verifier would return.
func (qp *queryPhase) run() error {
	fails := make([]error, (len(qp.idxs)+queryGrain-1)/queryGrain)
	err := parallel.For(context.Background(), len(qp.idxs), queryGrain, func(lo, hi int) {
		fails[lo/queryGrain] = qp.check(lo, hi)
	})
	for _, f := range fails {
		if err == nil {
			err = f
		}
	}
	// A panic in a chunk, or in a chunk's merkle.VerifyBatch, comes back
	// as a *parallel.PanicError: report it as CatchPanic reports one.
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		return prooferr.Recovered("fri", pe.Value)
	}
	return err
}

// queryGrain is the number of queries one chunk of the query loop checks:
// one batched permutation call covers a chunk's openings of one oracle or
// one fold layer.
const queryGrain = 8

// queryPhase is what every chunk of the query loop reads: the oracles,
// the opening tables, the fold challenges and the sampled query indices.
type queryPhase struct {
	oracles    []VerifierOracle
	groups     []PointGroup
	proof      *Proof
	powA, powB []field.Element // see openingTables
	ys         []field.Ext
	betas      []field.Ext
	idxs       []int
	logM       int
	// wPow[j] and wInvPow[j] are w^(2^j) and w^(-2^j), w the LDE
	// domain's generator.
	wPow, wInvPow []field.Element
	cfg           Config
}

// openingTables returns α^0, α^1, … split into their base and ω parts,
// one power per opened value in the order a query combines its rows
// (group by group, oracle by oracle), and each group's Σ α^k·y_k over its
// opened values y_k, which is the same for every query.
func openingTables(groups []PointGroup, opened OpenedValues, alpha field.Ext) (powA, powB []field.Element, ys []field.Ext) {
	ys = make([]field.Ext, len(groups))
	pow := field.ExtOne
	for gi := range groups {
		for _, vals := range opened[gi] {
			for _, y := range vals {
				powA, powB = append(powA, pow.A), append(powB, pow.B)
				ys[gi] = field.ExtAdd(ys[gi], field.ExtMul(pow, y))
				pow = field.ExtMul(pow, alpha)
			}
		}
	}
	return powA, powB, ys
}

// check verifies queries [lo, hi): their Merkle paths in batches, then
// each query's checks in query order. It returns the first failure.
func (qp *queryPhase) check(lo, hi int) error {
	paths, err := qp.batchPaths(lo, hi)
	if err != nil {
		return err
	}
	pts := qp.points(lo, hi)
	for q := lo; q < hi; q++ {
		if err := qp.verifyQuery(q, paths, pts); err != nil {
			return fmt.Errorf("query %d (index %d): %w", q, qp.idxs[q], err)
		}
	}
	return nil
}

// rowSiblings is the path length of an opened row of oracle o.
func rowSiblings(o VerifierOracle, logM int) int { return logM - capHeightOf(o.Cap) }

// stepSiblings is the path length of an opened pair of fold layer t.
func stepSiblings(cfg Config, logM, t int) int {
	logHalf := logM - t - 1
	return logHalf - layerCapHeight(cfg, 1<<logHalf)
}

// shapeOK reports whether a query round passes every shape check
// verifyQuery makes: row and step counts, row widths and path lengths.
func shapeOK(oracles []VerifierOracle, round QueryRound, numLayers, logM int, cfg Config) bool {
	if len(round.OracleRows) != len(oracles) || len(round.Steps) != numLayers {
		return false
	}
	for oi, row := range round.OracleRows {
		if len(row.Values) != oracles[oi].NumPolys ||
			len(row.Proof.Siblings) != rowSiblings(oracles[oi], logM) {
			return false
		}
	}
	for t, step := range round.Steps {
		if len(step.Proof.Siblings) != stepSiblings(cfg, logM, t) {
			return false
		}
	}
	return true
}

// pathVerdicts holds the batched Merkle verdicts of one chunk of queries
// starting at query lo. Batch b is oracle b, then fold layer
// b-len(oracles); lane[q-lo] is query q's opening in every batch, or -1
// when the query failed a shape check and was left out.
type pathVerdicts struct {
	lo   int
	lane [queryGrain]int
	ok   [][queryGrain]bool
}

// batchPaths checks every Merkle opening of the queries in [lo, hi) that
// pass their shape checks, with one merkle.VerifyBatch call per oracle
// and one per fold layer. Leaving out misshapen queries means a malformed
// proof cannot make the verifier hash before the walk rejects its shape.
// It returns merkle.VerifyBatch's error, a recovered panic.
func (qp *queryPhase) batchPaths(lo, hi int) (*pathVerdicts, error) {
	proof := qp.proof
	pv := &pathVerdicts{lo: lo, ok: make([][queryGrain]bool, len(qp.oracles)+len(proof.CommitPhaseCaps))}
	var (
		qs     [queryGrain]int
		ops    [queryGrain]merkle.Opening
		leaves [4 * queryGrain]field.Element
	)
	n := 0
	for q := lo; q < hi; q++ {
		pv.lane[q-lo] = -1
		if shapeOK(qp.oracles, proof.QueryRounds[q], len(proof.CommitPhaseCaps), qp.logM, qp.cfg) {
			pv.lane[q-lo] = n
			qs[n] = q
			n++
		}
	}
	for oi, o := range qp.oracles {
		for j, q := range qs[:n] {
			row := proof.QueryRounds[q].OracleRows[oi]
			ops[j] = merkle.Opening{Leaf: row.Values, Index: qp.idxs[q], Proof: row.Proof}
		}
		if err := merkle.VerifyBatch(o.Cap, ops[:n], pv.ok[oi][:]); err != nil {
			return nil, err
		}
	}
	for t, c := range proof.CommitPhaseCaps {
		for j, q := range qs[:n] {
			step := proof.QueryRounds[q].Steps[t]
			leaf := leaves[4*j : 4*j+4]
			leaf[0], leaf[1], leaf[2], leaf[3] = step.Pair[0].A, step.Pair[0].B, step.Pair[1].A, step.Pair[1].B
			ops[j] = merkle.Opening{Leaf: leaf, Index: qp.idxs[q] >> (t + 1), Proof: step.Proof}
		}
		if err := merkle.VerifyBatch(c, ops[:n], pv.ok[len(qp.oracles)+t][:]); err != nil {
			return nil, err
		}
	}
	return pv, nil
}

// verify returns batch b's verdict on query q's opening as merkle.Verify
// would, and calls merkle.Verify for a query the batches left out.
func (pv *pathVerdicts) verify(q, b int, leaf []field.Element, index int, p merkle.Proof, c merkle.Cap) error {
	lane := pv.lane[q-pv.lo]
	if lane < 0 {
		return merkle.Verify(leaf, index, p, c)
	}
	if !pv.ok[b][lane] {
		return merkle.ErrInvalidProof
	}
	return nil
}

// halfOne is 1/2, which turns 1/x into 1/(2x) in the fold; genInv is
// 1/g, g the LDE coset's shift.
var (
	halfOne = field.Inverse(field.New(2))
	genInv  = field.Inverse(field.MultiplicativeGenerator)
)

// chunkPoints holds, for the queries of one chunk starting at query lo,
// each query's point x on the LDE coset, 1/x, and 1/(x − z) for each
// group's opening point z, query by query (zero where x = z).
type chunkPoints struct {
	lo      int
	x, xInv [queryGrain]field.Element
	invDiff []field.Ext
}

// points computes the chunkPoints of queries [lo, hi): x = g·w^e and
// 1/x = (1/g)·w^(-e), e the bit-reversed index, from the tables of
// powers, and every 1/(x − z) through the norms' one batch inversion
// (1/(a + b·X) = (a − b·X)/(a² − W·b²)).
func (qp *queryPhase) points(lo, hi int) *chunkPoints {
	ng := len(qp.groups)
	cp := &chunkPoints{lo: lo, invDiff: make([]field.Ext, (hi-lo)*ng)}
	norms := make([]field.Element, len(cp.invDiff))
	for q := lo; q < hi; q++ {
		e := ntt.BitReverse(qp.idxs[q], qp.logM)
		x, xInv := field.MultiplicativeGenerator, genInv
		for j := range qp.wPow {
			if e>>j&1 == 1 {
				x, xInv = field.Mul(x, qp.wPow[j]), field.Mul(xInv, qp.wInvPow[j])
			}
		}
		cp.x[q-lo], cp.xInv[q-lo] = x, xInv
		for gi, g := range qp.groups {
			d := field.ExtSub(field.FromBase(x), g.Point)
			k := (q-lo)*ng + gi
			cp.invDiff[k] = d
			norms[k] = field.Sub(field.Square(d.A), field.Mul(field.W, field.Square(d.B)))
		}
	}
	field.BatchInverse(norms)
	for k, d := range cp.invDiff {
		cp.invDiff[k] = field.Ext{A: field.Mul(d.A, norms[k]), B: field.Mul(field.Neg(d.B), norms[k])}
	}
	return cp
}

func (qp *queryPhase) verifyQuery(q int, paths *pathVerdicts, pts *chunkPoints) error {
	oracles, proof, idx, logM := qp.oracles, qp.proof, qp.idxs[q], qp.logM
	round := proof.QueryRounds[q]
	if len(round.OracleRows) != len(oracles) {
		return fmt.Errorf("%w: %d oracle rows, want %d",
			ErrProofShape, len(round.OracleRows), len(oracles))
	}
	if len(round.Steps) != len(qp.betas) {
		return fmt.Errorf("%w: %d fold steps, want %d",
			ErrProofShape, len(round.Steps), len(qp.betas))
	}

	// Authenticate the oracle rows.
	for oi, row := range round.OracleRows {
		if len(row.Values) != oracles[oi].NumPolys {
			return fmt.Errorf("%w: oracle %d row has %d values, want %d",
				ErrProofShape, oi, len(row.Values), oracles[oi].NumPolys)
		}
		wantSiblings := rowSiblings(oracles[oi], logM)
		if len(row.Proof.Siblings) != wantSiblings {
			return fmt.Errorf("%w: oracle %d proof length %d, want %d",
				ErrProofShape, oi, len(row.Proof.Siblings), wantSiblings)
		}
		if err := paths.verify(q, oi, row.Values, idx, row.Proof, oracles[oi].Cap); err != nil {
			return fmt.Errorf("%w: oracle %d row: %v", ErrProofInvalid, oi, err)
		}
	}

	// Recompute the combined value F(x) at the query's point x from the
	// authenticated rows.
	x := pts.x[q-pts.lo]
	invDiff := pts.invDiff[(q-pts.lo)*len(qp.groups):]
	v := field.ExtZero
	k := 0
	for gi, g := range qp.groups {
		// b = Σ α^k·r_k over the group's row values, as two dot products.
		b := field.ExtZero
		for _, oi := range g.Oracles {
			row := round.OracleRows[oi].Values
			b.A = field.Add(b.A, field.Dot(row, qp.powA[k:k+len(row)]))
			b.B = field.Add(b.B, field.Dot(row, qp.powB[k:k+len(row)]))
			k += len(row)
		}
		diff := field.ExtSub(field.FromBase(x), g.Point)
		if diff.IsZero() {
			return fmt.Errorf("%w: opening point lies on the LDE domain", ErrProofInvalid)
		}
		v = field.ExtAdd(v, field.ExtMul(field.ExtSub(b, qp.ys[gi]), invDiff[gi]))
	}

	// Walk the fold layers. At every layer the query's pair sits at the
	// points (x_k, −x_k), x_k being the query's point x at an even index
	// and −x at an odd one, and the next layer's point is x²: so x and 1/x
	// are squared from layer to layer.
	xInv := pts.xInv[q-pts.lo]
	i := idx
	for t, step := range round.Steps {
		if step.Pair[i&1] != v {
			return fmt.Errorf("%w: fold layer %d value mismatch", ErrProofInvalid, t)
		}
		leaf := [4]field.Element{step.Pair[0].A, step.Pair[0].B, step.Pair[1].A, step.Pair[1].B}
		wantSiblings := stepSiblings(qp.cfg, logM, t)
		if len(step.Proof.Siblings) != wantSiblings {
			return fmt.Errorf("%w: layer %d proof length %d, want %d",
				ErrProofShape, t, len(step.Proof.Siblings), wantSiblings)
		}
		if err := paths.verify(q, len(oracles)+t, leaf[:], i>>1, step.Proof, proof.CommitPhaseCaps[t]); err != nil {
			return fmt.Errorf("%w: fold layer %d: %v", ErrProofInvalid, t, err)
		}
		// Fold: v' = [x_k·(a+b) + β·(a−b)] / (2x_k).
		xk, inv2xk := x, field.Mul(xInv, halfOne)
		if i&1 == 1 {
			xk, inv2xk = field.Neg(xk), field.Neg(inv2xk)
		}
		a, bv := step.Pair[0], step.Pair[1]
		num := field.ExtAdd(
			field.ExtScalarMul(xk, field.ExtAdd(a, bv)),
			field.ExtMul(qp.betas[t], field.ExtSub(a, bv)))
		v = field.ExtScalarMul(inv2xk, num)

		i >>= 1
		x, xInv = field.Square(x), field.Square(xInv)
	}

	// The folded value must match the final polynomial.
	if v != poly.EvalExtCoeffsAt(proof.FinalPoly, x) {
		return fmt.Errorf("%w: final polynomial mismatch", ErrProofInvalid)
	}
	return nil
}

// capHeightOf returns log2 of the cap size.
func capHeightOf(c merkle.Cap) int { return ntt.Log2(len(c)) }
