package fri

import (
	"fmt"

	"unizk/internal/field"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
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
	// sampled before any Merkle path is checked. The paths are then
	// checked in batches, and the walk below replays the one-query-at-a-
	// time checks in their order, looking up each path's verdict.
	idxs := make([]int, len(proof.QueryRounds))
	for q := range idxs {
		idxs[q] = int(ch.SampleBits(logM))
	}
	paths, err := batchPaths(oracles, proof, idxs, logM, cfg)
	if err != nil {
		return fmt.Errorf("%w: merkle batch: %v", ErrProofInvalid, err)
	}

	w := field.PrimitiveRootOfUnity(logM)
	for q, round := range proof.QueryRounds {
		idx := idxs[q]
		if err := verifyQuery(oracles, groups, opened, proof, round,
			alpha, betas, q, idx, logM, w, cfg, paths); err != nil {
			return fmt.Errorf("query %d (index %d): %w", q, idx, err)
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

// pathVerdicts holds the batched Merkle verdicts of a proof's query
// phase. Batch b is oracle b, then fold layer b-len(oracles); lane[q] is
// query q's opening in every batch, or -1 when the query failed a shape
// check and was left out.
type pathVerdicts struct {
	lane []int
	ok   [][]bool
}

// batchPaths checks every Merkle opening of the queries that pass their
// shape checks, with one merkle.VerifyBatch call per oracle and one per
// fold layer. Leaving out misshapen queries means a malformed proof
// cannot make the verifier hash before the replay rejects its shape.
func batchPaths(oracles []VerifierOracle, proof *Proof, idxs []int, logM int, cfg Config) (*pathVerdicts, error) {
	numLayers := len(proof.CommitPhaseCaps)
	pv := &pathVerdicts{lane: make([]int, len(idxs)), ok: make([][]bool, len(oracles)+numLayers)}
	var qs []int
	for q, round := range proof.QueryRounds {
		pv.lane[q] = -1
		if shapeOK(oracles, round, numLayers, logM, cfg) {
			pv.lane[q] = len(qs)
			qs = append(qs, q)
		}
	}
	ops := make([]merkle.Opening, len(qs))
	for oi, o := range oracles {
		for j, q := range qs {
			row := proof.QueryRounds[q].OracleRows[oi]
			ops[j] = merkle.Opening{Leaf: row.Values, Index: idxs[q], Proof: row.Proof}
		}
		pv.ok[oi] = make([]bool, len(qs))
		if err := merkle.VerifyBatch(o.Cap, ops, pv.ok[oi]); err != nil {
			return nil, err
		}
	}
	leaves := make([]field.Element, 4*len(qs))
	for t, c := range proof.CommitPhaseCaps {
		for j, q := range qs {
			pair := proof.QueryRounds[q].Steps[t].Pair
			leaf := leaves[4*j : 4*j+4]
			leaf[0], leaf[1], leaf[2], leaf[3] = pair[0].A, pair[0].B, pair[1].A, pair[1].B
			ops[j] = merkle.Opening{Leaf: leaf, Index: idxs[q] >> (t + 1),
				Proof: proof.QueryRounds[q].Steps[t].Proof}
		}
		pv.ok[len(oracles)+t] = make([]bool, len(qs))
		if err := merkle.VerifyBatch(c, ops, pv.ok[len(oracles)+t]); err != nil {
			return nil, err
		}
	}
	return pv, nil
}

// verify returns batch b's verdict on query q's opening as merkle.Verify
// would, and calls merkle.Verify for a query the batches left out.
func (pv *pathVerdicts) verify(q, b int, leaf []field.Element, index int, p merkle.Proof, c merkle.Cap) error {
	lane := pv.lane[q]
	if lane < 0 {
		return merkle.Verify(leaf, index, p, c)
	}
	if !pv.ok[b][lane] {
		return merkle.ErrInvalidProof
	}
	return nil
}

func verifyQuery(oracles []VerifierOracle, groups []PointGroup, opened OpenedValues,
	proof *Proof, round QueryRound, alpha field.Ext, betas []field.Ext,
	q, idx, logM int, w field.Element, cfg Config, paths *pathVerdicts) error {

	if len(round.OracleRows) != len(oracles) {
		return fmt.Errorf("%w: %d oracle rows, want %d",
			ErrProofShape, len(round.OracleRows), len(oracles))
	}
	if len(round.Steps) != len(betas) {
		return fmt.Errorf("%w: %d fold steps, want %d",
			ErrProofShape, len(round.Steps), len(betas))
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

	// Recompute the combined value F(x_idx) from the authenticated rows.
	x := field.Mul(field.MultiplicativeGenerator,
		field.Exp(w, uint64(ntt.BitReverse(idx, logM))))
	v := field.ExtZero
	alphaPow := field.ExtOne
	for gi, g := range groups {
		b := field.ExtZero
		y := field.ExtZero
		for ki, oi := range g.Oracles {
			for pi, rv := range round.OracleRows[oi].Values {
				b = field.ExtAdd(b, field.ExtScalarMul(rv, alphaPow))
				y = field.ExtAdd(y, field.ExtMul(alphaPow, opened[gi][ki][pi]))
				alphaPow = field.ExtMul(alphaPow, alpha)
			}
		}
		diff := field.ExtSub(field.FromBase(x), g.Point)
		if diff.IsZero() {
			return fmt.Errorf("%w: opening point lies on the LDE domain", ErrProofInvalid)
		}
		v = field.ExtAdd(v, field.ExtMul(field.ExtSub(b, y), field.ExtInverse(diff)))
	}

	// Walk the fold layers.
	i := idx
	size := 1 << logM
	shift := field.MultiplicativeGenerator
	for t, step := range round.Steps {
		k := i >> 1
		if step.Pair[i&1] != v {
			return fmt.Errorf("%w: fold layer %d value mismatch", ErrProofInvalid, t)
		}
		leaf := []field.Element{step.Pair[0].A, step.Pair[0].B,
			step.Pair[1].A, step.Pair[1].B}
		half := size / 2
		wantSiblings := stepSiblings(cfg, logM, t)
		if len(step.Proof.Siblings) != wantSiblings {
			return fmt.Errorf("%w: layer %d proof length %d, want %d",
				ErrProofShape, t, len(step.Proof.Siblings), wantSiblings)
		}
		if err := paths.verify(q, len(oracles)+t, leaf, k, step.Proof, proof.CommitPhaseCaps[t]); err != nil {
			return fmt.Errorf("%w: fold layer %d: %v", ErrProofInvalid, t, err)
		}
		// Fold: v' = [x·(a+b) + β·(a−b)] / (2x).
		wl := field.PrimitiveRootOfUnity(ntt.Log2(size))
		xk := field.Mul(shift, field.Exp(wl, uint64(ntt.BitReverse(k, ntt.Log2(size)-1))))
		a, bv := step.Pair[0], step.Pair[1]
		num := field.ExtAdd(
			field.ExtScalarMul(xk, field.ExtAdd(a, bv)),
			field.ExtMul(betas[t], field.ExtSub(a, bv)))
		v = field.ExtScalarMul(field.Inverse(field.Double(xk)), num)

		i = k
		size = half
		shift = field.Square(shift)
	}

	// The folded value must match the final polynomial.
	wf := field.PrimitiveRootOfUnity(ntt.Log2(size))
	xf := field.Mul(shift, field.Exp(wf, uint64(ntt.BitReverse(i, ntt.Log2(size)))))
	want := poly.EvalExtCoeffs(proof.FinalPoly, field.FromBase(xf))
	if v != want {
		return fmt.Errorf("%w: final polynomial mismatch", ErrProofInvalid)
	}
	return nil
}

// capHeightOf returns log2 of the cap size.
func capHeightOf(c merkle.Cap) int { return ntt.Log2(len(c)) }
