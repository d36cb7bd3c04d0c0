package fri

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"unizk/internal/field"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/poly"
	"unizk/internal/poseidon"
	"unizk/internal/prooferr"
	"unizk/internal/trace"
)

func randValues(rng *rand.Rand, numPolys, n int) [][]field.Element {
	out := make([][]field.Element, numPolys)
	for i := range out {
		out[i] = make([]field.Element, n)
		for j := range out[i] {
			out[i][j] = field.New(rng.Uint64())
		}
	}
	return out
}

func TestCommitLDEMatchesEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := TestConfig()
	n := 16
	values := randValues(rng, 3, n)
	b := must(CommitValues(context.Background(), values, cfg.RateBits, cfg.CapHeight, nil))

	// The committed coefficients interpolate the input values.
	w := field.PrimitiveRootOfUnity(ntt.Log2(n))
	for i, vals := range values {
		x := field.One
		for j := 0; j < n; j++ {
			if poly.Eval(b.Coeffs[i], x) != vals[j] {
				t.Fatalf("poly %d does not interpolate value %d", i, j)
			}
			x = field.Mul(x, w)
		}
	}

	// The LDE rows are the coset evaluations in bit-reversed order.
	m := n << cfg.RateBits
	logM := ntt.Log2(m)
	wm := field.PrimitiveRootOfUnity(logM)
	for j := 0; j < m; j++ {
		x := field.Mul(field.MultiplicativeGenerator,
			field.Exp(wm, uint64(ntt.BitReverse(j, logM))))
		for i := range values {
			if b.LDE[i][j] != poly.Eval(b.Coeffs[i], x) {
				t.Fatalf("LDE[%d][%d] mismatch", i, j)
			}
		}
	}
}

// TestCommitBatchOwnsOnlyColumns checks that a committed batch holds no
// row-major copy of its LDE: it owns exactly its LDE columns, plus its
// coefficient vectors when CommitValues interpolated them, and each Row
// reads its leaf from the columns.
func TestCommitBatchOwnsOnlyColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const numPolys, n, rateBits = 5, 64, 2
	values := randValues(rng, numPolys, n)
	for _, tc := range []struct {
		name  string
		batch *PolynomialBatch
	}{
		{"CommitCoeffs", must(CommitCoeffs(context.Background(), values, rateBits, 1, nil))},
		{"CommitValues", must(CommitValues(context.Background(), values, rateBits, 1, nil))},
	} {
		b := tc.batch
		owned := append([][]field.Element(nil), b.LDE...)
		if tc.name == "CommitValues" {
			owned = append(owned, b.Coeffs...)
		}
		if len(b.owned) != len(owned) {
			t.Fatalf("%s: batch owns %d buffers, want %d (LDE columns and coefficients only)",
				tc.name, len(b.owned), len(owned))
		}
		for k, p := range b.owned {
			if len(*p) != len(owned[k]) || &(*p)[0] != &owned[k][0] {
				t.Fatalf("%s: owned buffer %d is not LDE column or coefficient vector %d", tc.name, k, k)
			}
		}
		for j := range n << rateBits {
			row := b.Row(j)
			for i, col := range b.LDE {
				if row[i] != col[j] {
					t.Fatalf("%s: Row(%d)[%d] = %v, want %v", tc.name, j, i, row[i], col[j])
				}
			}
		}
		b.Release()
	}
}

func TestEvalAllMatchesCoeffs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := TestConfig()
	b := must(CommitValues(context.Background(), randValues(rng, 2, 8), cfg.RateBits, cfg.CapHeight, nil))
	z := field.Ext{A: field.New(rng.Uint64()), B: field.New(rng.Uint64())}
	got := must(b.EvalAll(context.Background(), z, nil))
	for i := range got {
		if got[i] != hornerExt(b.Coeffs[i], z) {
			t.Fatalf("EvalAll poly %d mismatch", i)
		}
	}
}

// hornerExt evaluates a base-field coefficient vector at an extension
// point by Horner's rule in the extension, the oracle for EvalAll.
func hornerExt(coeffs []field.Element, x field.Ext) field.Ext {
	var acc field.Ext
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = field.ExtAdd(field.ExtMul(acc, x), field.FromBase(coeffs[i]))
	}
	return acc
}

// TestEvalAllMatchesHorner checks EvalAll's dot products against Horner's
// rule on ragged coefficient vectors, empty and constant ones included,
// at points in the base field and off it.
func TestEvalAllMatchesHorner(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lens := []int{0, 1, 2, 7, 8, 9, 1000, 2053}
	b := &PolynomialBatch{N: lens[len(lens)-1]}
	for _, n := range lens {
		b.Coeffs = append(b.Coeffs, randValues(rng, 1, n)[0])
	}
	for _, z := range []field.Ext{
		field.FromBase(field.New(rng.Uint64())),
		field.ExtZero,
		field.ExtOne,
		{A: field.New(rng.Uint64()), B: field.New(rng.Uint64())},
		{A: 0, B: field.Element(field.Order - 1)},
	} {
		got := must(b.EvalAll(context.Background(), z, nil))
		for i, c := range b.Coeffs {
			if want := hornerExt(c, z); got[i] != want {
				t.Fatalf("z=%v len %d: EvalAll = %v, want %v", z, len(c), got[i], want)
			}
		}
	}
}

// setup builds two committed oracles opened at two points (the second
// oracle at both, mirroring the Z-polynomial opened at ζ and g·ζ).
type friFixture struct {
	oracles []*PolynomialBatch
	voracle []VerifierOracle
	groups  []PointGroup
	opened  OpenedValues
	cfg     Config
	logN    int
}

func newFixture(t *testing.T, seed int64, logN int) *friFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := TestConfig()
	n := 1 << logN
	b1 := must(CommitValues(context.Background(), randValues(rng, 3, n), cfg.RateBits, cfg.CapHeight, nil))
	b2 := must(CommitValues(context.Background(), randValues(rng, 2, n), cfg.RateBits, cfg.CapHeight, nil))
	zeta := field.Ext{A: field.New(rng.Uint64()), B: field.New(rng.Uint64())}
	g := field.PrimitiveRootOfUnity(logN)
	gzeta := field.ExtScalarMul(g, zeta)
	groups := []PointGroup{
		{Point: zeta, Oracles: []int{0, 1}},
		{Point: gzeta, Oracles: []int{1}},
	}
	opened := OpenedValues{
		{must(b1.EvalAll(context.Background(), zeta, nil)), must(b2.EvalAll(context.Background(), zeta, nil))},
		{must(b2.EvalAll(context.Background(), gzeta, nil))},
	}
	return &friFixture{
		oracles: []*PolynomialBatch{b1, b2},
		voracle: []VerifierOracle{
			{Cap: b1.Cap(), NumPolys: 3},
			{Cap: b2.Cap(), NumPolys: 2},
		},
		groups: groups,
		opened: opened,
		cfg:    cfg,
		logN:   logN,
	}
}

func (f *friFixture) challenger() *poseidon.Challenger {
	ch := poseidon.NewChallenger()
	for _, o := range f.oracles {
		ch.ObserveCap(o.Cap())
	}
	for _, g := range f.opened {
		for _, vals := range g {
			for _, v := range vals {
				ch.ObserveExt(v)
			}
		}
	}
	return ch
}

func (f *friFixture) prove(rec *trace.Recorder) *Proof {
	return must(Prove(context.Background(), f.oracles, f.groups, f.opened, f.challenger(), f.cfg, rec))
}

func (f *friFixture) verify(proof *Proof) error {
	return Verify(f.voracle, f.groups, f.opened, proof, f.challenger(), f.cfg, f.logN)
}

func TestProveVerifyRoundTrip(t *testing.T) {
	for _, logN := range []int{3, 5, 7} {
		f := newFixture(t, int64(logN), logN)
		proof := f.prove(nil)
		if err := f.verify(proof); err != nil {
			t.Fatalf("logN=%d: valid proof rejected: %v", logN, err)
		}
	}
}

func TestVerifyRejectsTamperedOpening(t *testing.T) {
	f := newFixture(t, 10, 5)
	proof := f.prove(nil)
	f.opened[0][0][1] = field.ExtAdd(f.opened[0][0][1], field.ExtOne)
	if err := f.verify(proof); err == nil {
		t.Fatal("tampered opening accepted")
	}
}

func TestVerifyRejectsTamperedFinalPoly(t *testing.T) {
	f := newFixture(t, 11, 5)
	proof := f.prove(nil)
	proof.FinalPoly[0] = field.ExtAdd(proof.FinalPoly[0], field.ExtOne)
	err := f.verify(proof)
	if err == nil {
		t.Fatal("tampered final polynomial accepted")
	}
}

func TestVerifyRejectsTamperedPow(t *testing.T) {
	f := newFixture(t, 12, 5)
	proof := f.prove(nil)
	proof.PowWitness = field.Add(proof.PowWitness, field.One)
	err := f.verify(proof)
	if err == nil || !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("tampered PoW: got %v", err)
	}
}

func TestVerifyRejectsTamperedQueryValue(t *testing.T) {
	f := newFixture(t, 13, 5)
	proof := f.prove(nil)
	proof.QueryRounds[0].OracleRows[0].Values[0] =
		field.Add(proof.QueryRounds[0].OracleRows[0].Values[0], field.One)
	if err := f.verify(proof); err == nil {
		t.Fatal("tampered query row accepted")
	}
}

func TestVerifyRejectsTamperedFoldPair(t *testing.T) {
	f := newFixture(t, 14, 5)
	proof := f.prove(nil)
	if len(proof.QueryRounds[0].Steps) == 0 {
		t.Skip("no fold layers at this size")
	}
	proof.QueryRounds[0].Steps[0].Pair[0] =
		field.ExtAdd(proof.QueryRounds[0].Steps[0].Pair[0], field.ExtOne)
	if err := f.verify(proof); err == nil {
		t.Fatal("tampered fold pair accepted")
	}
}

func TestVerifyRejectsWrongCap(t *testing.T) {
	f := newFixture(t, 15, 5)
	proof := f.prove(nil)
	other := newFixture(t, 16, 5)
	f.voracle[0].Cap = other.voracle[0].Cap
	if err := f.verify(proof); err == nil {
		t.Fatal("proof accepted against wrong oracle cap")
	}
}

func TestVerifyRejectsShapeErrors(t *testing.T) {
	f := newFixture(t, 17, 5)
	proof := f.prove(nil)

	mut := func(name string, mutate func(p *Proof)) {
		p := *proof
		// Deep-ish copies of the mutated parts are made inside mutate.
		mutate(&p)
		err := f.verify(&p)
		if err == nil || !errors.Is(err, ErrProofShape) {
			t.Errorf("%s: got %v, want shape error", name, err)
		}
	}
	mut("missing cap", func(p *Proof) {
		p.CommitPhaseCaps = p.CommitPhaseCaps[:len(p.CommitPhaseCaps)-1]
	})
	mut("short final poly", func(p *Proof) {
		p.FinalPoly = p.FinalPoly[:len(p.FinalPoly)-1]
	})
	mut("missing query round", func(p *Proof) {
		p.QueryRounds = p.QueryRounds[:len(p.QueryRounds)-1]
	})
	mut("truncated merkle path", func(p *Proof) {
		rounds := append([]QueryRound(nil), p.QueryRounds...)
		rows := append([]OracleRow(nil), rounds[0].OracleRows...)
		rows[0].Proof.Siblings = rows[0].Proof.Siblings[:1]
		rounds[0].OracleRows = rows
		p.QueryRounds = rounds
	})
}

// TestShapeOKGatesBatching checks that the Merkle batches leave out a
// query with any of the shape faults verifyQuery rejects, so a malformed
// row or path is never hashed, and keep a well-formed one.
func TestShapeOKGatesBatching(t *testing.T) {
	f := newFixture(t, 31, 5)
	proof := f.prove(nil)
	logM := f.logN + f.cfg.RateBits
	numLayers := len(proof.CommitPhaseCaps)
	if !shapeOK(f.voracle, proof.QueryRounds[0], numLayers, logM, f.cfg) {
		t.Fatal("honest query fails the shape gate")
	}
	for name, mutate := range map[string]func(r *QueryRound){
		"row count":  func(r *QueryRound) { r.OracleRows = r.OracleRows[1:] },
		"step count": func(r *QueryRound) { r.Steps = r.Steps[1:] },
		"row width":  func(r *QueryRound) { r.OracleRows[1].Values = r.OracleRows[1].Values[1:] },
		"row path":   func(r *QueryRound) { r.OracleRows[0].Proof.Siblings = r.OracleRows[0].Proof.Siblings[1:] },
		"step path":  func(r *QueryRound) { r.Steps[numLayers-1].Proof.Siblings = nil },
	} {
		r := proof.QueryRounds[0]
		r.OracleRows = append([]OracleRow(nil), r.OracleRows...)
		r.Steps = append([]QueryStep(nil), r.Steps...)
		mutate(&r)
		if shapeOK(f.voracle, r, numLayers, logM, f.cfg) {
			t.Errorf("%s: misshapen query passes the shape gate", name)
		}
	}
}

// TestVerifyQueryChunkPanicIsClassified checks that a panic inside a chunk of
// the query loop reaches the caller as prooferr.CatchPanic reports one on
// the calling goroutine, with the pool at one, two and seven workers.
// The phase's one point group names an oracle the phase lacks, which
// Verify's shape checks never let through, so every query's combine step
// indexes past its rows.
func TestVerifyQueryChunkPanicIsClassified(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)

	const n = 20 // two full chunks and a partial one
	qp := &queryPhase{
		groups: []PointGroup{{Oracles: []int{0}}},
		proof:  &Proof{QueryRounds: make([]QueryRound, n)},
		idxs:   make([]int, n),
	}
	want := func() (err error) {
		defer prooferr.CatchPanic(&err, "fri")
		var rows []OracleRow
		_ = rows[0].Values
		return nil
	}()
	for _, workers := range []int{1, 2, 7} {
		parallel.SetWorkers(workers)
		err := qp.run()
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, want)
		}
		if !errors.Is(err, prooferr.ErrPanicRecovered) || prooferr.Class(err) != "malformed" {
			t.Fatalf("workers=%d: %v is not a classified recovered panic", workers, err)
		}
	}
}

func TestSmallDomainNoFolding(t *testing.T) {
	// When the committed domain is at or below the final-polynomial
	// bound, FRI sends the polynomial directly with zero fold layers
	// (regression: the verifier must clamp its expectations).
	rng := rand.New(rand.NewSource(30))
	cfg := PlonkyConfig() // FinalPolyBits 5 vs a degree-8 polynomial
	cfg.ProofOfWorkBits = 4
	logN := 3
	b := must(CommitValues(context.Background(), randValues(rng, 2, 1<<logN), cfg.RateBits, cfg.CapHeight, nil))
	zeta := field.Ext{A: field.New(rng.Uint64()), B: field.New(rng.Uint64())}
	groups := []PointGroup{{Point: zeta, Oracles: []int{0}}}
	opened := OpenedValues{{must(b.EvalAll(context.Background(), zeta, nil))}}

	mkCh := func() *poseidon.Challenger {
		ch := poseidon.NewChallenger()
		ch.ObserveCap(b.Cap())
		for _, v := range opened[0][0] {
			ch.ObserveExt(v)
		}
		return ch
	}
	proof := must(Prove(context.Background(), []*PolynomialBatch{b}, groups, opened, mkCh(), cfg, nil))
	if len(proof.CommitPhaseCaps) != 0 {
		t.Fatalf("expected 0 fold layers, got %d", len(proof.CommitPhaseCaps))
	}
	oracles := []VerifierOracle{{Cap: b.Cap(), NumPolys: 2}}
	if err := Verify(oracles, groups, opened, proof, mkCh(), cfg, logN); err != nil {
		t.Fatalf("small-domain proof rejected: %v", err)
	}
}

func TestProofIsDeterministic(t *testing.T) {
	f1 := newFixture(t, 18, 4)
	f2 := newFixture(t, 18, 4)
	p1, p2 := f1.prove(nil), f2.prove(nil)
	if p1.PowWitness != p2.PowWitness {
		t.Fatal("proof generation not deterministic")
	}
	if len(p1.FinalPoly) != len(p2.FinalPoly) {
		t.Fatal("final poly lengths differ")
	}
	for i := range p1.FinalPoly {
		if p1.FinalPoly[i] != p2.FinalPoly[i] {
			t.Fatal("final polys differ")
		}
	}
}

func TestProveRecordsKernels(t *testing.T) {
	f := newFixture(t, 19, 5)
	rec := trace.New()
	// Re-commit through the recorder to capture the commitment kernels.
	rng := rand.New(rand.NewSource(20))
	must(CommitValues(context.Background(), randValues(rng, 2, 32), f.cfg.RateBits, f.cfg.CapHeight, rec))
	f.prove(rec)
	counts := map[trace.Kind]int{}
	for _, n := range rec.Nodes() {
		counts[n.Kind]++
	}
	for _, k := range []trace.Kind{trace.NTT, trace.MerkleTree, trace.VecOp, trace.Hash} {
		if counts[k] == 0 {
			t.Errorf("no %v kernels recorded", k)
		}
	}
}

func TestDomainPointsOrder(t *testing.T) {
	logM := 4
	xs := domainPoints(logM)
	w := field.PrimitiveRootOfUnity(logM)
	for j := range xs {
		want := field.Mul(field.MultiplicativeGenerator,
			field.Exp(w, uint64(ntt.BitReverse(j, logM))))
		if xs[j] != want {
			t.Fatalf("domain point %d wrong", j)
		}
	}
}

// domainPoints is domainPointsCtx under a background context.
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

func BenchmarkProve(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	cfg := TestConfig()
	logN := 8
	batch := must(CommitValues(context.Background(), randValues(rng, 4, 1<<logN), cfg.RateBits, cfg.CapHeight, nil))
	zeta := field.Ext{A: field.New(rng.Uint64()), B: field.New(rng.Uint64())}
	groups := []PointGroup{{Point: zeta, Oracles: []int{0}}}
	opened := OpenedValues{{must(batch.EvalAll(context.Background(), zeta, nil))}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := poseidon.NewChallenger()
		ch.ObserveCap(batch.Cap())
		must(Prove(context.Background(), []*PolynomialBatch{batch}, groups, opened, ch, cfg, nil))
	}
}

// must unwraps a stage result that a background context cannot cancel.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestProofSecurityBitsTerms checks that each of the four terms binds
// when it is the smallest.
func TestProofSecurityBitsTerms(t *testing.T) {
	cfg := PlonkyConfig() // FRI: 3·28 + 16 = 100
	for _, tc := range []struct {
		name                             string
		slots, constraints, degree, logN int
		want                             int
	}{
		{"fri", 0, 1, 4, 10, 100},
		{"permutation", 1 << 20, 1, 4, 10, 44},
		{"alpha", 0, 1 << 10, 4, 10, 54},
		{"zeta", 0, 1, 4, 30, 96},
	} {
		if got := cfg.ProofSecurityBits(tc.slots, tc.constraints, tc.degree, tc.logN); got != tc.want {
			t.Errorf("%s: %d bits, want %d", tc.name, got, tc.want)
		}
	}
}
