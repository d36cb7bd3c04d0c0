package fri

import (
	"context"
	"errors"
	"fmt"
	"sync"

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

	qp := queryPhases.Get().(*queryPhase)
	defer qp.release()
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
	qp.betas = resize(qp.betas, numLayers)
	layerSize := m
	for t := 0; t < numLayers; t++ {
		wantCap := 1 << layerCapHeight(cfg, layerSize/2)
		if len(proof.CommitPhaseCaps[t]) != wantCap {
			return fmt.Errorf("%w: layer %d cap size %d, want %d",
				ErrProofShape, t, len(proof.CommitPhaseCaps[t]), wantCap)
		}
		ch.ObserveCap(proof.CommitPhaseCaps[t])
		qp.betas[t] = ch.SampleExt()
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
	qp.oracles, qp.groups, qp.proof, qp.logM, qp.cfg = oracles, groups, proof, logM, cfg
	qp.idxs = resize(qp.idxs, len(proof.QueryRounds))
	qp.wPow, qp.wInvPow = resize(qp.wPow, logM), resize(qp.wInvPow, logM)
	w := field.PrimitiveRootOfUnity(logM)
	wInv := field.Inverse(w)
	for j := range logM {
		qp.wPow[j], qp.wInvPow[j] = w, wInv
		w, wInv = field.Square(w), field.Square(wInv)
	}
	qp.openingTables(opened, alpha)
	for q := range qp.idxs {
		qp.idxs[q] = int(ch.SampleBits(logM))
	}
	return qp.run()
}

// run checks every query's Merkle paths, then the queries in chunks of
// queryGrain across the worker pool, each chunk stopping at its first
// failure, and returns the lowest-indexed failure: the one a
// one-query-at-a-time verifier would return.
func (qp *queryPhase) run() error {
	err := qp.verifyPaths()
	if err == nil {
		ng := len(qp.groups)
		qp.x, qp.xInv = resize(qp.x, len(qp.idxs)), resize(qp.xInv, len(qp.idxs))
		qp.invDiff, qp.norms = resize(qp.invDiff, len(qp.idxs)*ng), resize(qp.norms, len(qp.idxs)*ng)
		fails := resize(qp.errs, (len(qp.idxs)+queryGrain-1)/queryGrain)
		clear(fails)
		qp.errs = fails
		err = parallel.For(context.Background(), len(qp.idxs), queryGrain, func(lo, hi int) {
			fails[lo/queryGrain] = qp.check(lo, hi)
		})
		for _, f := range fails {
			if err == nil {
				err = f
			}
		}
	}
	// A panic in a chunk, or in a merkle.VerifyBatch call, comes back as
	// a *parallel.PanicError: report it as CatchPanic reports one.
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		return prooferr.Recovered("fri", pe.Value)
	}
	return err
}

// queryGrain is the number of queries one chunk of the query loop checks.
const queryGrain = 8

// queryPhase is what every chunk of the query loop reads: the oracles,
// the opening tables, the fold challenges and the sampled query indices.
// It also holds the phase's scratch, which grows on first use and is
// kept while the queryPhase waits in queryPhases for the next proof.
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

	paths pathVerdicts
	// ops and leaves hold the Merkle openings verifyPaths batches, tree
	// by tree, and the fold steps' leaves; errs holds one error per tree,
	// then one per chunk of the query loop.
	ops    []merkle.Opening
	leaves []field.Element
	errs   []error
	// x[q] and xInv[q] are query q's point x on the LDE coset and 1/x;
	// invDiff[q·len(groups)+gi] is 1/(x − z) for group gi's opening point
	// z (zero where x = z), computed through norms.
	x, xInv, norms []field.Element
	invDiff        []field.Ext
}

// queryPhases recycles queryPhases, and with them their scratch, across
// proofs.
var queryPhases = sync.Pool{New: func() any { return new(queryPhase) }}

// release drops qp's references to the proof and returns it to
// queryPhases.
func (qp *queryPhase) release() {
	qp.oracles, qp.groups, qp.proof = nil, nil, nil
	clear(qp.ops)
	queryPhases.Put(qp)
}

// resize returns s with length n, reallocated only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// openingTables sets powA and powB to α^0, α^1, … split into their base
// and ω parts, one power per opened value in the order a query combines
// its rows (group by group, oracle by oracle), and ys to each group's
// Σ α^k·y_k over its opened values y_k, which is the same for every
// query.
func (qp *queryPhase) openingTables(opened OpenedValues, alpha field.Ext) {
	qp.ys = resize(qp.ys, len(qp.groups))
	qp.powA, qp.powB = qp.powA[:0], qp.powB[:0]
	pow := field.ExtOne
	for gi := range qp.groups {
		qp.ys[gi] = field.ExtZero
		for _, vals := range opened[gi] {
			for _, y := range vals {
				qp.powA, qp.powB = append(qp.powA, pow.A), append(qp.powB, pow.B)
				qp.ys[gi] = field.ExtAdd(qp.ys[gi], field.ExtMul(pow, y))
				pow = field.ExtMul(pow, alpha)
			}
		}
	}
}

// check verifies queries [lo, hi) in query order, reading their Merkle
// verdicts from paths, and returns the first failure.
func (qp *queryPhase) check(lo, hi int) error {
	qp.points(lo, hi)
	for q := lo; q < hi; q++ {
		if err := qp.verifyQuery(q); err != nil {
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

// pathVerdicts holds the Merkle verdicts of every query that passes its
// shape checks. Tree b is oracle b, then fold layer b-len(oracles);
// lane[q] is query q's position among the batched queries, or -1 when it
// failed a shape check and was left out, and ok[b·n+lane[q]] is tree b's
// verdict on query q's opening.
type pathVerdicts struct {
	lane []int
	ok   []bool
	n    int
}

// verifyPaths checks every Merkle opening of the queries that pass their
// shape checks, with one merkle.VerifyBatch call per tree, the trees
// across the worker pool. Each call hashes once a node that several
// queries' paths share. Leaving out misshapen queries means a malformed proof
// cannot make the verifier hash before the walk rejects its shape. It
// returns merkle.VerifyBatch's error, a recovered panic.
func (qp *queryPhase) verifyPaths() error {
	pv, proof := &qp.paths, qp.proof
	pv.lane = resize(pv.lane, len(qp.idxs))
	pv.n = 0
	for q := range qp.idxs {
		pv.lane[q] = -1
		if shapeOK(qp.oracles, proof.QueryRounds[q], len(proof.CommitPhaseCaps), qp.logM, qp.cfg) {
			pv.lane[q] = pv.n
			pv.n++
		}
	}
	trees := len(qp.oracles) + len(proof.CommitPhaseCaps)
	pv.ok = resize(pv.ok, trees*pv.n)
	qp.ops = resize(qp.ops, trees*pv.n)
	qp.leaves = resize(qp.leaves, 4*len(proof.CommitPhaseCaps)*pv.n)
	errs := resize(qp.errs, trees)
	clear(errs)
	qp.errs = errs
	err := parallel.For(context.Background(), trees, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			errs[b] = qp.verifyTree(b)
		}
	})
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}
	return err
}

// verifyTree makes tree b's merkle.VerifyBatch call over every batched
// query's opening of it.
func (qp *queryPhase) verifyTree(b int) error {
	pv, proof, n := &qp.paths, qp.proof, qp.paths.n
	ops := qp.ops[b*n : (b+1)*n]
	if b < len(qp.oracles) {
		for q, lane := range pv.lane {
			if lane >= 0 {
				row := proof.QueryRounds[q].OracleRows[b]
				ops[lane] = merkle.Opening{Leaf: row.Values, Index: qp.idxs[q], Proof: row.Proof}
			}
		}
		return merkle.VerifyBatch(qp.oracles[b].Cap, ops, pv.ok[b*n:(b+1)*n])
	}
	t := b - len(qp.oracles)
	for q, lane := range pv.lane {
		if lane >= 0 {
			step := proof.QueryRounds[q].Steps[t]
			leaf := qp.leaves[4*(t*n+lane) : 4*(t*n+lane+1)]
			leaf[0], leaf[1], leaf[2], leaf[3] = step.Pair[0].A, step.Pair[0].B, step.Pair[1].A, step.Pair[1].B
			ops[lane] = merkle.Opening{Leaf: leaf, Index: qp.idxs[q] >> (t + 1), Proof: step.Proof}
		}
	}
	return merkle.VerifyBatch(proof.CommitPhaseCaps[t], ops, pv.ok[b*n:(b+1)*n])
}

// verify returns tree b's verdict on query q's opening as merkle.Verify
// would, and calls merkle.Verify for a query verifyPaths left out.
func (pv *pathVerdicts) verify(q, b int, leaf []field.Element, index int, p merkle.Proof, c merkle.Cap) error {
	lane := pv.lane[q]
	if lane < 0 {
		return merkle.Verify(leaf, index, p, c)
	}
	if !pv.ok[b*pv.n+lane] {
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

// points sets x, 1/x and every 1/(x − z) of queries [lo, hi): x = g·w^e
// and 1/x = (1/g)·w^(-e), e the bit-reversed index, from the tables of
// powers, and every 1/(x − z) through the norms' one batch inversion
// (1/(a + b·X) = (a − b·X)/(a² − W·b²)).
func (qp *queryPhase) points(lo, hi int) {
	ng := len(qp.groups)
	for q := lo; q < hi; q++ {
		e := ntt.BitReverse(qp.idxs[q], qp.logM)
		x, xInv := field.MultiplicativeGenerator, genInv
		for j := range qp.wPow {
			if e>>j&1 == 1 {
				x, xInv = field.Mul(x, qp.wPow[j]), field.Mul(xInv, qp.wInvPow[j])
			}
		}
		qp.x[q], qp.xInv[q] = x, xInv
		for gi, g := range qp.groups {
			d := field.ExtSub(field.FromBase(x), g.Point)
			k := q*ng + gi
			qp.invDiff[k] = d
			qp.norms[k] = field.Sub(field.Square(d.A), field.Mul(field.W, field.Square(d.B)))
		}
	}
	field.BatchInverse(qp.norms[lo*ng : hi*ng])
	for k := lo * ng; k < hi*ng; k++ {
		d := qp.invDiff[k]
		qp.invDiff[k] = field.Ext{A: field.Mul(d.A, qp.norms[k]), B: field.Mul(field.Neg(d.B), qp.norms[k])}
	}
}

func (qp *queryPhase) verifyQuery(q int) error {
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
		if err := qp.paths.verify(q, oi, row.Values, idx, row.Proof, oracles[oi].Cap); err != nil {
			return fmt.Errorf("%w: oracle %d row: %v", ErrProofInvalid, oi, err)
		}
	}

	// Recompute the combined value F(x) at the query's point x from the
	// authenticated rows.
	x := qp.x[q]
	invDiff := qp.invDiff[q*len(qp.groups):]
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
	xInv := qp.xInv[q]
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
		if err := qp.paths.verify(q, len(oracles)+t, leaf[:], i>>1, step.Proof, proof.CommitPhaseCaps[t]); err != nil {
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
