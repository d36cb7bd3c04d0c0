package fri

import (
	"context"
	"time"

	"unizk/internal/field"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/poseidon"
	"unizk/internal/trace"
)

// vecGrain is the chunk size for element-wise vector kernels (the
// combine's reduce and packing, fold).
const vecGrain = 1 << 10

// PointGroup names one opening point and the oracles (by index into the
// Prove/Verify oracle list) whose polynomials are all opened there. The
// proof systems use e.g. {ζ: wires, Z, quotient} and {g·ζ: Z}.
type PointGroup struct {
	Point   field.Ext
	Oracles []int
}

// OpenedValues holds the claimed evaluations: OpenedValues[g][k][i] is the
// value of polynomial i of the k-th oracle of group g at the group's point.
type OpenedValues [][][]field.Ext

// Proof is a batched FRI opening proof.
type Proof struct {
	// CommitPhaseCaps are the Merkle caps of the folded layers, in fold
	// order.
	CommitPhaseCaps []merkle.Cap
	// QueryRounds holds one consistency check per FRI query.
	QueryRounds []QueryRound
	// FinalPoly is the last layer's coefficient vector, sent in clear.
	FinalPoly []field.Ext
	// PowWitness is the grinding witness.
	PowWitness field.Element
}

// QueryRound is the data for one query index: the opened rows of every
// oracle, and one folded pair per commit-phase layer.
type QueryRound struct {
	OracleRows []OracleRow
	Steps      []QueryStep
}

// OracleRow is an opened Merkle leaf of a committed polynomial batch.
type OracleRow struct {
	Values []field.Element
	Proof  merkle.Proof
}

// QueryStep is one opened fold pair with its Merkle proof.
type QueryStep struct {
	Pair  [2]field.Ext
	Proof merkle.Proof
}

// layerCapHeight clamps the configured cap height to the layer size.
func layerCapHeight(cfg Config, numLeaves int) int {
	h := cfg.CapHeight
	if logN := ntt.Log2(numLeaves); h > logN {
		h = logN
	}
	return h
}

// Prove produces a batched opening proof for the given oracles at the
// given point groups. The challenger must have already observed the oracle
// caps and the opened values (the outer protocol's transcript); Prove and
// Verify then perform identical transcript operations.
//
// The context is checked between the combine, commit-phase, grinding,
// and query phases, it propagates into every parallel.For chunk loop of
// the combine, fold, Merkle, and opening kernels, and it is polled
// periodically inside the proof-of-work search (the one unbounded loop),
// so servers can impose timeouts on long proofs. On cancellation it
// returns ctx.Err() and leaves no shared state (twiddle/root caches,
// challenger clones) half-written.
//
// Every parallel kernel writes disjoint index ranges, so the proof —
// and the Fiat–Shamir transcript it commits to — is bit-identical to a
// serial run (enforced by TestFRIProveSerialParallel).
func Prove(ctx context.Context, oracles []*PolynomialBatch, groups []PointGroup,
	opened OpenedValues, ch *poseidon.Challenger, cfg Config, rec *trace.Recorder) (*Proof, error) {

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	n := oracles[0].N
	for _, o := range oracles {
		if o.N != n || o.RateBits != cfg.RateBits {
			panic("fri: all oracles must share size and rate")
		}
	}
	m := n << cfg.RateBits
	logM := ntt.Log2(m)

	alpha := ch.SampleExt()
	fp, err := combine(ctx, oracles, groups, opened, alpha, rec)
	if err != nil {
		return nil, err
	}

	// Commit-phase folding: arity 2, with the bit-reversed layout keeping
	// fold pairs adjacent in memory. Fold pair k writes only next[k], so
	// the per-query folding fans across the pool chunk by chunk. Layer
	// buffers are pooled and released once the final polynomial is
	// recovered; leaf arenas and trees live until the query phase has
	// copied everything it opens.
	layer := *fp
	layerBufs := []*[]field.Ext{fp}
	shift := field.MultiplicativeGenerator
	finalSize := 1 << (cfg.FinalPolyBits + cfg.RateBits)
	var caps []merkle.Cap
	var trees []*merkle.Tree
	var foldArenas []*[]field.Element
	for len(layer) > finalSize {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		half := len(layer) / 2
		// One flat arena per layer: leaf k is the 4-element row
		// flat[4k:4k+4], so the whole layer's leaves are two allocations
		// (header + pooled arena) instead of one per pair.
		leaves := make([][]field.Element, half)
		flatp := baseBufs.Get(4 * half)
		foldArenas = append(foldArenas, flatp)
		var tree *merkle.Tree
		rec.Merkle(half, 4, func() {
			flat := *flatp
			err = parallel.For(ctx, half, vecGrain, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					a, bv := layer[2*k], layer[2*k+1]
					row := flat[4*k : 4*k+4]
					row[0], row[1], row[2], row[3] = a.A, a.B, bv.A, bv.B
					leaves[k] = row
				}
			})
			if err != nil {
				return
			}
			tree, err = merkle.BuildContext(ctx, leaves, layerCapHeight(cfg, half))
		})
		if err != nil {
			return nil, err
		}
		trees = append(trees, tree)
		caps = append(caps, tree.Cap())
		ch.ObserveCap(tree.Cap())
		beta := ch.SampleExt()

		nextp := extBufs.Get(half)
		next := *nextp
		layerBufs = append(layerBufs, nextp)
		rec.VecOp(half, 2, 6, func() {
			err = foldLayerCtx(ctx, layer, next, beta, shift)
		})
		if err != nil {
			return nil, err
		}
		layer = next
		shift = field.Square(shift)
	}

	// Recover the final polynomial's coefficients: component-wise
	// un-bit-reverse + coset iNTT (NTT is base-linear, so the quadratic
	// extension splits into two base transforms).
	finalCoeffs, err := extCosetInverseNN(ctx, layer, shift, rec)
	for _, p := range layerBufs {
		extBufs.Put(p)
	}
	if err != nil {
		return nil, err
	}
	finalPoly := finalCoeffs[:len(layer)>>cfg.RateBits]
	for _, c := range finalCoeffs[len(finalPoly):] {
		if !c.IsZero() {
			panic("fri: combined polynomial is not low degree — outer protocol bug")
		}
	}
	ch.ObserveExts(finalPoly)

	// Proof-of-work grinding (part of "Other Hash" in Table 1). The
	// permutation count is only known after the search, so the kernel
	// node is recorded with a measured duration. Grind scans candidate
	// blocks across the pool and returns the smallest witness, the one a
	// serial loop would find, with its serial-equivalent try count, so
	// the proof and the recorded node size do not depend on the workers.
	//unizklint:allow nodeterminism grind duration is telemetry for the kernel trace; the witness is the smallest hit whatever the schedule
	grindStart := time.Now()
	witness, tries, err := ch.Grind(ctx, cfg.ProofOfWorkBits)
	if err != nil {
		return nil, err
	}
	rec.RecordTimed(trace.Node{Kind: trace.Hash, Size: tries}, time.Since(grindStart))
	ch.Observe(witness)
	if ch.SampleBits(cfg.ProofOfWorkBits) != 0 {
		panic("fri: internal proof-of-work inconsistency")
	}

	// Query phase: all indices are sampled first (sampling mutates the
	// challenger, so it stays serial and transcript-ordered), then the
	// Merkle openings — pure reads of the committed trees — are batched
	// across the pool, one query round per chunk element.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	indices := make([]int, cfg.NumQueries)
	for q := range indices {
		indices[q] = int(ch.SampleBits(logM))
	}
	rounds := make([]QueryRound, cfg.NumQueries)
	if err := parallel.For(ctx, cfg.NumQueries, 1, func(lo, hi int) {
		for q := lo; q < hi; q++ {
			idx := indices[q]
			var round QueryRound
			for _, o := range oracles {
				round.OracleRows = append(round.OracleRows,
					OracleRow{Values: o.Row(idx), Proof: o.Tree.Open(idx)})
			}
			i := idx
			for l, tree := range trees {
				k := i >> 1
				leaf := (*foldArenas[l])[4*k : 4*k+4]
				round.Steps = append(round.Steps, QueryStep{
					Pair: [2]field.Ext{
						{A: leaf[0], B: leaf[1]},
						{A: leaf[2], B: leaf[3]},
					},
					Proof: tree.Open(k),
				})
				i = k
			}
			rounds[q] = round
		}
	}); err != nil {
		return nil, err
	}

	// Everything the proof needs from the fold trees has been copied
	// (caps, query pairs, sibling paths), so their digest levels and leaf
	// arenas go back to the pools. The oracle trees belong to the caller
	// (PolynomialBatch.Release).
	for _, tree := range trees {
		tree.Release()
	}
	for _, p := range foldArenas {
		baseBufs.Put(p)
	}

	return &Proof{
		CommitPhaseCaps: caps,
		QueryRounds:     rounds,
		FinalPoly:       finalPoly,
		PowWitness:      witness,
	}, nil
}

// extCosetInverseNN interpolates bit-reversed-order extension values on
// the coset shift·H back to natural-order coefficients, component-wise.
func extCosetInverseNN(ctx context.Context, values []field.Ext, shift field.Element,
	rec *trace.Recorder) ([]field.Ext, error) {

	n := len(values)
	out := make([]field.Ext, n)
	var err error
	rec.NTT(n, 2, true, true, true, func() {
		asp, bsp := baseBufs.Get(n), baseBufs.Get(n)
		defer baseBufs.Put(asp)
		defer baseBufs.Put(bsp)
		as, bs := *asp, *bsp
		for i, v := range values {
			as[i] = v.A
			bs[i] = v.B
		}
		cols := [][]field.Element{as, bs}
		if err = ntt.Columns(ctx, cols, cols, ntt.Spec{Inverse: true, Shift: shift, InBR: true}); err != nil {
			return
		}
		for i := range out {
			out[i] = field.Ext{A: as[i], B: bs[i]}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// foldLayerCtx is one arity-2 commit-phase fold: layer (length 2h, the
// coset shift·H in bit-reversed order) folds into next (length h, the
// coset shift²·H') under the verifier challenge beta. x_k = shift·w^{rev(k)};
//
//	next[k] = [ x·(a+b) + β·(a−b) ] / (2x).
//
// Each chunk seeds its power walk with shift·w^lo (exact, so
// bit-identical to the serial accumulation); xPow/inv2x scratch is
// pooled.
func foldLayerCtx(ctx context.Context, layer, next []field.Ext, beta field.Ext, shift field.Element) error {
	half := len(next)
	if len(layer) != 2*half {
		panic("fri: fold output must be half the layer")
	}
	logLayer := ntt.Log2(len(layer))
	w := field.PrimitiveRootOfUnity(logLayer)
	xPowp, inv2xp := baseBufs.Get(half), baseBufs.Get(half)
	defer baseBufs.Put(xPowp)
	defer baseBufs.Put(inv2xp)
	xPow := *xPowp
	if err := parallel.For(ctx, half, vecGrain, func(lo, hi int) {
		acc := field.Mul(shift, field.Exp(w, uint64(lo)))
		for t := lo; t < hi; t++ {
			xPow[t] = acc
			acc = field.Mul(acc, w)
		}
	}); err != nil {
		return err
	}
	inv2x := *inv2xp
	if err := parallel.For(ctx, half, vecGrain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			inv2x[k] = field.Double(xPow[ntt.BitReverse(k, logLayer-1)])
		}
	}); err != nil {
		return err
	}
	if err := field.BatchInverseCtx(ctx, inv2x); err != nil {
		return err
	}
	return parallel.For(ctx, half, vecGrain, func(lo, hi int) {
		foldRange(lo, hi, layer, next, inv2x, xPow, beta, logLayer)
	})
}

// FoldLayer runs one commit-phase fold as a standalone kernel, for
// benchmarks and differential tests: it returns the folded layer for the
// given challenge without touching a transcript. Prove's commit phase
// uses the identical code path (foldLayerCtx).
func FoldLayer(layer []field.Ext, beta field.Ext, shift field.Element) []field.Ext {
	next := make([]field.Ext, len(layer)/2)
	parallel.Must(foldLayerCtx(context.Background(), layer, next, beta, shift))
	return next
}

// foldRange is the arity-2 FRI fold inner loop: each output point k
// combines the sibling pair (layer[2k], layer[2k+1]) with the verifier
// challenge β and the precomputed 1/(2x) inverses.
//
//unizklint:hotpath
func foldRange(lo, hi int, layer, next []field.Ext, inv2x, xPow []field.Element,
	beta field.Ext, logLayer int) {
	for k := lo; k < hi; k++ {
		a, bv := layer[2*k], layer[2*k+1]
		x := xPow[ntt.BitReverse(k, logLayer-1)]
		num := field.ExtAdd(
			field.ExtScalarMul(x, field.ExtAdd(a, bv)),
			field.ExtMul(beta, field.ExtSub(a, bv)))
		next[k] = field.ExtScalarMul(inv2x[k], num)
	}
}
