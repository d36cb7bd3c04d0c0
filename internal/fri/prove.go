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

// vecGrain is the chunk size for element-wise vector kernels (combine,
// fold, domain-point generation).
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

// observeCap absorbs a Merkle cap into the Fiat–Shamir transcript.
func observeCap(ch *poseidon.Challenger, c merkle.Cap) {
	for _, h := range c {
		ch.ObserveHash(h)
	}
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
func Prove(oracles []*PolynomialBatch, groups []PointGroup, opened OpenedValues,
	ch *poseidon.Challenger, cfg Config, rec *trace.Recorder) *Proof {
	proof, err := ProveContext(context.Background(), oracles, groups, opened, ch, cfg, rec)
	if err != nil {
		// A background context never cancels; any error here is a bug.
		panic("fri: ProveContext failed without cancellation: " + err.Error())
	}
	return proof
}

// ProveContext is Prove with cooperative cancellation: the context is
// checked between the combine, commit-phase, grinding, and query phases,
// it propagates into every parallel.For chunk loop of the combine, fold,
// Merkle, and opening kernels, and it is polled periodically inside the
// proof-of-work search (the one unbounded loop), so servers can impose
// timeouts on long proofs. On cancellation it returns ctx.Err() and
// leaves no shared state (twiddle/root caches, challenger clones)
// half-written.
//
// Every parallel kernel writes disjoint index ranges, so the proof —
// and the Fiat–Shamir transcript it commits to — is bit-identical to a
// serial run (enforced by TestFRIProveSerialParallel).
func ProveContext(ctx context.Context, oracles []*PolynomialBatch, groups []PointGroup,
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

	// Combine all openings into the single quotient polynomial
	//   F(X) = Σ_g (B_g(X) - y_g) / (X - z_g),
	// B_g = Σ α^c · p_i with one fresh power of α per (group, poly),
	// evaluated pointwise on the LDE domain. This is element-wise vector
	// work — the "Poly" kernel class of the paper — parallelized per
	// domain point: every chunk owns a disjoint range of j, and the α
	// powers are precomputed serially so each b[j] accumulates its polys
	// in exactly the serial order.
	fp := getExtZero(m) // f accumulates, so it must start zeroed
	f := *fp
	totalPolys := 0
	for _, g := range groups {
		for _, oi := range g.Oracles {
			totalPolys += oracles[oi].NumPolys()
		}
	}
	var err error
	bp, diffp := getExt(m), getExt(m)
	rec.VecOp(m, totalPolys, 4, func() {
		// xs[j] = g·w^rev(j), matching LDE order — the shared read-only
		// domain vector cached across jobs.
		xs := ntt.CosetDomainBR(logM)
		pows := make([]field.Ext, totalPolys)
		acc := field.ExtOne
		for i := range pows {
			pows[i] = acc
			acc = field.ExtMul(acc, alpha)
		}
		b := *bp
		diff := *diffp
		off := 0
		for gi, g := range groups {
			// Flatten the group's polynomials and α powers, and fold the
			// opened values into y, in the transcript's (oracle, poly)
			// order.
			var ldes [][]field.Element
			var gpows []field.Ext
			y := field.ExtZero
			k := off
			for ki, oi := range g.Oracles {
				for pi, lde := range oracles[oi].LDE {
					ldes = append(ldes, lde)
					gpows = append(gpows, pows[k])
					y = field.ExtAdd(y, field.ExtMul(pows[k], opened[gi][ki][pi]))
					k++
				}
			}
			off = k
			point := g.Point
			if err = parallel.For(ctx, m, vecGrain, func(lo, hi int) {
				combineRange(lo, hi, ldes, gpows, xs, point, b, diff)
			}); err != nil {
				return
			}
			if err = field.ExtBatchInverseCtx(ctx, diff); err != nil {
				return
			}
			if err = parallel.For(ctx, m, vecGrain, func(lo, hi int) {
				accumulateQuotientRange(lo, hi, f, b, diff, y)
			}); err != nil {
				return
			}
		}
	})
	putExt(bp)
	putExt(diffp)
	if err != nil {
		putExt(fp)
		return nil, err
	}

	// Commit-phase folding: arity 2, with the bit-reversed layout keeping
	// fold pairs adjacent in memory. Fold pair k writes only next[k], so
	// the per-query folding fans across the pool chunk by chunk. Layer
	// buffers are pooled and released once the final polynomial is
	// recovered; leaf arenas and trees live until the query phase has
	// copied everything it opens.
	layer := f
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
		flatp := getBase(4 * half)
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
		observeCap(ch, tree.Cap())
		beta := ch.SampleExt()

		nextp := getExt(half)
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
		putExt(p)
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
	for _, c := range finalPoly {
		ch.ObserveExt(c)
	}

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
				values, mp := o.Tree.Open(idx)
				// Copy the opened row: the tree's leaf arena is pooled
				// and must not escape into the proof.
				round.OracleRows = append(round.OracleRows,
					OracleRow{Values: append([]field.Element(nil), values...), Proof: mp})
			}
			i := idx
			for _, tree := range trees {
				k := i >> 1
				leaf, mp := tree.Open(k)
				round.Steps = append(round.Steps, QueryStep{
					Pair: [2]field.Ext{
						{A: leaf[0], B: leaf[1]},
						{A: leaf[2], B: leaf[3]},
					},
					Proof: mp,
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
		putBase(p)
	}

	return &Proof{
		CommitPhaseCaps: caps,
		QueryRounds:     rounds,
		FinalPoly:       finalPoly,
		PowWitness:      witness,
	}, nil
}

// domainPoints is domainPointsCtx under a background context, for tests
// and non-cancellable callers.
func domainPoints(logM int) []field.Element {
	out, err := domainPointsCtx(context.Background(), logM)
	parallel.Must(err)
	return out
}

// domainPointsCtx returns x_j = g·w^{BitReverse(j)} for the size-2^logM
// LDE domain, indexed in the committed (bit-reversed) order. Both the
// power walk and the bit-reversed gather are chunked across the pool.
func domainPointsCtx(ctx context.Context, logM int) ([]field.Element, error) {
	m := 1 << logM
	w := field.PrimitiveRootOfUnity(logM)
	pow := make([]field.Element, m)
	if err := parallel.For(ctx, m, vecGrain, func(lo, hi int) {
		acc := field.Mul(field.MultiplicativeGenerator, field.Exp(w, uint64(lo)))
		for t := lo; t < hi; t++ {
			pow[t] = acc
			acc = field.Mul(acc, w)
		}
	}); err != nil {
		return nil, err
	}
	out := make([]field.Element, m)
	if err := parallel.For(ctx, m, vecGrain, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			out[j] = pow[ntt.BitReverse(j, logM)]
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// extCosetInverseNN interpolates bit-reversed-order extension values on
// the coset shift·H back to natural-order coefficients, component-wise.
func extCosetInverseNN(ctx context.Context, values []field.Ext, shift field.Element,
	rec *trace.Recorder) ([]field.Ext, error) {

	n := len(values)
	out := make([]field.Ext, n)
	var err error
	rec.NTT(n, 2, true, true, true, func() {
		asp, bsp := getBase(n), getBase(n)
		defer putBase(asp)
		defer putBase(bsp)
		as, bs := *asp, *bsp
		for i, v := range values {
			as[i] = v.A
			bs[i] = v.B
		}
		ntt.BitReversePermute(as)
		ntt.BitReversePermute(bs)
		if err = ntt.CosetInverseNNCtx(ctx, as, shift); err != nil {
			return
		}
		if err = ntt.CosetInverseNNCtx(ctx, bs, shift); err != nil {
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

// combineRange is the α-combination inner loop: for each point j of the
// chunk it evaluates the batched column combination Σ α^k·lde_k[j] and
// the (x_j - point) denominators the batch inversion consumes. The
// parallel.For orchestrator above owns the chunking and the scratch
// slices; this leaf does pure field arithmetic.
//
//unizklint:hotpath
func combineRange(lo, hi int, ldes [][]field.Element, gpows []field.Ext,
	xs []field.Element, point field.Ext, b, diff []field.Ext) {
	for j := lo; j < hi; j++ {
		bj := field.ExtZero
		for p := range ldes {
			bj = field.ExtAdd(bj, field.ExtScalarMul(ldes[p][j], gpows[p]))
		}
		b[j] = bj
		diff[j] = field.ExtSub(field.FromBase(xs[j]), point)
	}
}

// accumulateQuotientRange adds the group's opening quotient
// (b(x) - y) / (x - point) into the running combined polynomial f.
//
//unizklint:hotpath
func accumulateQuotientRange(lo, hi int, f, b, diff []field.Ext, y field.Ext) {
	for j := lo; j < hi; j++ {
		f[j] = field.ExtAdd(f[j],
			field.ExtMul(field.ExtSub(b[j], y), diff[j]))
	}
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
	xPowp, inv2xp := getBase(half), getBase(half)
	defer putBase(xPowp)
	defer putBase(inv2xp)
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
