package fri_test

import (
	"errors"
	"fmt"
	"testing"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/piop"
	"unizk/internal/plonk"
	"unizk/internal/poly"
	"unizk/internal/poseidon"
	"unizk/internal/prooferr"
	"unizk/internal/workloads"
)

// refVerify is the FRI verifier as it was before the Merkle paths were
// batched and the queries split into chunks: each query samples its
// index, then checks its rows and fold steps one merkle.Verify at a time,
// and computes every fold point with Exp and Inverse. fri.Verify must
// return exactly its error on every proof.
func refVerify(oracles []fri.VerifierOracle, groups []fri.PointGroup, opened fri.OpenedValues,
	proof *fri.Proof, ch *poseidon.Challenger, cfg fri.Config, logN int) (err error) {

	defer prooferr.CatchPanic(&err, "fri")

	logM := logN + cfg.RateBits
	m := 1 << logM

	if proof == nil {
		return fmt.Errorf("%w: nil proof", fri.ErrProofShape)
	}
	for oi, o := range oracles {
		if len(o.Cap) != fri.CapSize(cfg, logM) {
			return fmt.Errorf("%w: oracle %d cap size %d, want %d",
				fri.ErrProofShape, oi, len(o.Cap), fri.CapSize(cfg, logM))
		}
		if o.NumPolys <= 0 {
			return fmt.Errorf("%w: oracle %d has %d polynomials",
				fri.ErrProofShape, oi, o.NumPolys)
		}
	}
	if len(opened) != len(groups) {
		return fmt.Errorf("%w: opened values for %d groups, want %d",
			fri.ErrProofShape, len(opened), len(groups))
	}
	for gi, g := range groups {
		if len(opened[gi]) != len(g.Oracles) {
			return fmt.Errorf("%w: group %d opens %d oracles, want %d",
				fri.ErrProofShape, gi, len(opened[gi]), len(g.Oracles))
		}
		for ki, oi := range g.Oracles {
			if oi < 0 || oi >= len(oracles) {
				return fmt.Errorf("%w: oracle index %d out of range", fri.ErrProofShape, oi)
			}
			if len(opened[gi][ki]) != oracles[oi].NumPolys {
				return fmt.Errorf("%w: group %d oracle %d has %d openings, want %d",
					fri.ErrProofShape, gi, oi, len(opened[gi][ki]), oracles[oi].NumPolys)
			}
		}
	}

	alpha := ch.SampleExt()

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
			fri.ErrProofShape, len(proof.CommitPhaseCaps), numLayers)
	}
	betas := make([]field.Ext, numLayers)
	layerSize := m
	for t := 0; t < numLayers; t++ {
		wantCap := 1 << refLayerCapHeight(cfg, layerSize/2)
		if len(proof.CommitPhaseCaps[t]) != wantCap {
			return fmt.Errorf("%w: layer %d cap size %d, want %d",
				fri.ErrProofShape, t, len(proof.CommitPhaseCaps[t]), wantCap)
		}
		ch.ObserveCap(proof.CommitPhaseCaps[t])
		betas[t] = ch.SampleExt()
		layerSize >>= 1
	}

	if len(proof.FinalPoly) != finalSize>>cfg.RateBits {
		return fmt.Errorf("%w: final polynomial has %d coefficients, want %d",
			fri.ErrProofShape, len(proof.FinalPoly), finalSize>>cfg.RateBits)
	}
	for _, c := range proof.FinalPoly {
		ch.ObserveExt(c)
	}

	ch.Observe(proof.PowWitness)
	if ch.SampleBits(cfg.ProofOfWorkBits) != 0 {
		return fmt.Errorf("%w: proof-of-work witness fails", fri.ErrProofInvalid)
	}

	if len(proof.QueryRounds) != cfg.NumQueries {
		return fmt.Errorf("%w: %d query rounds, want %d",
			fri.ErrProofShape, len(proof.QueryRounds), cfg.NumQueries)
	}

	w := field.PrimitiveRootOfUnity(logM)
	for q, round := range proof.QueryRounds {
		idx := int(ch.SampleBits(logM))
		if err := refVerifyQuery(oracles, groups, opened, proof, round,
			alpha, betas, idx, logM, w, cfg); err != nil {
			return fmt.Errorf("query %d (index %d): %w", q, idx, err)
		}
	}
	return nil
}

func refVerifyQuery(oracles []fri.VerifierOracle, groups []fri.PointGroup, opened fri.OpenedValues,
	proof *fri.Proof, round fri.QueryRound, alpha field.Ext, betas []field.Ext,
	idx, logM int, w field.Element, cfg fri.Config) error {

	if len(round.OracleRows) != len(oracles) {
		return fmt.Errorf("%w: %d oracle rows, want %d",
			fri.ErrProofShape, len(round.OracleRows), len(oracles))
	}
	if len(round.Steps) != len(betas) {
		return fmt.Errorf("%w: %d fold steps, want %d",
			fri.ErrProofShape, len(round.Steps), len(betas))
	}

	for oi, row := range round.OracleRows {
		if len(row.Values) != oracles[oi].NumPolys {
			return fmt.Errorf("%w: oracle %d row has %d values, want %d",
				fri.ErrProofShape, oi, len(row.Values), oracles[oi].NumPolys)
		}
		wantSiblings := logM - ntt.Log2(len(oracles[oi].Cap))
		if len(row.Proof.Siblings) != wantSiblings {
			return fmt.Errorf("%w: oracle %d proof length %d, want %d",
				fri.ErrProofShape, oi, len(row.Proof.Siblings), wantSiblings)
		}
		if err := merkle.Verify(row.Values, idx, row.Proof, oracles[oi].Cap); err != nil {
			return fmt.Errorf("%w: oracle %d row: %v", fri.ErrProofInvalid, oi, err)
		}
	}

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
			return fmt.Errorf("%w: opening point lies on the LDE domain", fri.ErrProofInvalid)
		}
		v = field.ExtAdd(v, field.ExtMul(field.ExtSub(b, y), field.ExtInverse(diff)))
	}

	i := idx
	size := 1 << logM
	shift := field.MultiplicativeGenerator
	for t, step := range round.Steps {
		k := i >> 1
		if step.Pair[i&1] != v {
			return fmt.Errorf("%w: fold layer %d value mismatch", fri.ErrProofInvalid, t)
		}
		leaf := []field.Element{step.Pair[0].A, step.Pair[0].B,
			step.Pair[1].A, step.Pair[1].B}
		half := size / 2
		wantSiblings := ntt.Log2(half) - refLayerCapHeight(cfg, half)
		if len(step.Proof.Siblings) != wantSiblings {
			return fmt.Errorf("%w: layer %d proof length %d, want %d",
				fri.ErrProofShape, t, len(step.Proof.Siblings), wantSiblings)
		}
		if err := merkle.Verify(leaf, k, step.Proof, proof.CommitPhaseCaps[t]); err != nil {
			return fmt.Errorf("%w: fold layer %d: %v", fri.ErrProofInvalid, t, err)
		}
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

	wf := field.PrimitiveRootOfUnity(ntt.Log2(size))
	xf := field.Mul(shift, field.Exp(wf, uint64(ntt.BitReverse(i, ntt.Log2(size)))))
	want := poly.EvalExtCoeffs(proof.FinalPoly, field.FromBase(xf))
	if v != want {
		return fmt.Errorf("%w: final polynomial mismatch", fri.ErrProofInvalid)
	}
	return nil
}

// refLayerCapHeight is the cap height of a layer of numLeaves leaves.
func refLayerCapHeight(cfg fri.Config, numLeaves int) int {
	return ntt.Log2(fri.CapSize(cfg, ntt.Log2(numLeaves)))
}

// friInstance is the FRI half of an honest proof: fri.Verify's arguments
// as the outer protocol's verifier passes them, with a fresh copy of its
// transcript per call.
type friInstance struct {
	name       string
	oracles    []fri.VerifierOracle
	groups     []fri.PointGroup
	opened     fri.OpenedValues
	proof      *fri.Proof
	transcript func() *poseidon.Challenger
	cfg        fri.Config
	logN       int
}

// plonkInstance proves a Fibonacci circuit of steps additions and takes
// fri.Verify's arguments from the circuit's transcript replay.
func plonkInstance(t *testing.T, cfg fri.Config, steps int) friInstance {
	t.Helper()
	b := plonk.NewBuilder()
	f0, f1, result := b.AddPublicInput(), b.AddPublicInput(), b.AddPublicInput()
	prev, cur := f0, f1
	x, y := field.Zero, field.One
	for range steps {
		prev, cur = cur, b.Add(prev, cur)
		x, y = y, field.Add(x, y)
	}
	b.AssertEqual(cur, result)
	c := b.Build(cfg)
	wit := c.NewWitness()
	wit.Set(f0, field.Zero)
	wit.Set(f1, field.One)
	wit.Set(result, y)
	proof, err := c.Prove(wit, nil)
	if err != nil {
		t.Fatalf("plonk prove: %v", err)
	}
	vk := c.VerificationKey()
	if err := plonk.Verify(vk, proof.PublicInputs, proof); err != nil {
		t.Fatalf("honest plonk proof rejected: %v", err)
	}
	return replayed(t, fmt.Sprintf("plonk/fib-%d/q%d", steps, cfg.NumQueries), proof.FRI, cfg, vk.LogN,
		func() (*piop.Replay, error) { return vk.Replay(proof.PublicInputs, proof) })
}

// starkInstance proves the Fibonacci AIR on 2^logN rows and takes
// fri.Verify's arguments from the AIR's transcript replay.
func starkInstance(t *testing.T, cfg fri.Config, logN int) friInstance {
	t.Helper()
	s, cols, err := workloads.BuildFibonacciStark(logN, cfg)
	if err != nil {
		t.Fatalf("stark new: %v", err)
	}
	proof, err := s.Prove(cols, nil)
	if err != nil {
		t.Fatalf("stark prove: %v", err)
	}
	if err := s.Verify(proof); err != nil {
		t.Fatalf("honest stark proof rejected: %v", err)
	}
	return replayed(t, fmt.Sprintf("stark/fib-2^%d/q%d", logN, cfg.NumQueries), proof.FRI, cfg, logN,
		func() (*piop.Replay, error) { return s.Replay(proof) })
}

// replayed is the FRI half of an honest proof, with a fresh transcript
// replay per call.
func replayed(t *testing.T, name string, proof *fri.Proof, cfg fri.Config, logN int,
	replay func() (*piop.Replay, error)) friInstance {

	t.Helper()
	r, err := replay()
	if err != nil {
		t.Fatalf("%s: replay: %v", name, err)
	}
	return friInstance{
		name:    name,
		oracles: r.Oracles,
		groups:  r.Groups,
		opened:  r.Opened,
		proof:   proof,
		transcript: func() *poseidon.Challenger {
			r, _ := replay()
			return r.Challenger
		},
		cfg:  cfg,
		logN: logN,
	}
}

// cloneProof deep-copies every part of a FRI proof a tamper may change.
func cloneProof(p *fri.Proof) *fri.Proof {
	out := &fri.Proof{PowWitness: p.PowWitness, FinalPoly: append([]field.Ext(nil), p.FinalPoly...)}
	for _, c := range p.CommitPhaseCaps {
		out.CommitPhaseCaps = append(out.CommitPhaseCaps, append(merkle.Cap(nil), c...))
	}
	clonePath := func(pr merkle.Proof) merkle.Proof {
		return merkle.Proof{Siblings: append([]poseidon.HashOut(nil), pr.Siblings...)}
	}
	for _, r := range p.QueryRounds {
		var nr fri.QueryRound
		for _, row := range r.OracleRows {
			nr.OracleRows = append(nr.OracleRows, fri.OracleRow{
				Values: append([]field.Element(nil), row.Values...), Proof: clonePath(row.Proof)})
		}
		for _, st := range r.Steps {
			nr.Steps = append(nr.Steps, fri.QueryStep{Pair: st.Pair, Proof: clonePath(st.Proof)})
		}
		out.QueryRounds = append(out.QueryRounds, nr)
	}
	return out
}

func bump(e field.Element) field.Element { return field.Add(e, field.One) }

func bumpExt(e field.Ext) field.Ext { return field.ExtAdd(e, field.ExtOne) }

// tamper is one change to an honest FRI proof.
type tamper struct {
	name string
	fn   func(p *fri.Proof)
}

// tampers returns the changes the error-identity test applies: every part
// of the proof, in the first and last oracle and layer, in early and late
// queries, and pairs of faults in different queries (or in one query) in
// both orders, so "first failing check wins" is pinned. The verifier
// checks queries in chunks of eight, so faults also sit on either side of
// the first chunk edge, twice inside one chunk, and in the last query,
// which ends the last (for 28 and 84 queries, partial) chunk.
func tampers(numOracles, numLayers, numQueries int) []tamper {
	early, late, last := 1, numQueries-2, numQueries-1
	lastO, lastL := numOracles-1, numLayers-1
	rowValue := func(q, oi int) func(*fri.Proof) {
		return func(p *fri.Proof) {
			v := p.QueryRounds[q].OracleRows[oi].Values
			v[len(v)-1] = bump(v[len(v)-1])
		}
	}
	rowWidth := func(q, oi int) func(*fri.Proof) {
		return func(p *fri.Proof) {
			row := &p.QueryRounds[q].OracleRows[oi]
			row.Values = row.Values[:len(row.Values)-1]
		}
	}
	rowSibling := func(q, oi int) func(*fri.Proof) {
		return func(p *fri.Proof) {
			s := p.QueryRounds[q].OracleRows[oi].Proof.Siblings
			s[len(s)-1][2] = bump(s[len(s)-1][2])
		}
	}
	rowPath := func(q, oi int) func(*fri.Proof) {
		return func(p *fri.Proof) {
			pr := &p.QueryRounds[q].OracleRows[oi].Proof
			pr.Siblings = pr.Siblings[1:]
		}
	}
	foldPair := func(q, t, side int) func(*fri.Proof) {
		return func(p *fri.Proof) {
			st := &p.QueryRounds[q].Steps[t]
			st.Pair[side] = bumpExt(st.Pair[side])
		}
	}
	stepSibling := func(q, t int) func(*fri.Proof) {
		return func(p *fri.Proof) {
			s := p.QueryRounds[q].Steps[t].Proof.Siblings
			s[0][0] = bump(s[0][0])
		}
	}
	stepPath := func(q, t int) func(*fri.Proof) {
		return func(p *fri.Proof) {
			pr := &p.QueryRounds[q].Steps[t].Proof
			pr.Siblings = append(pr.Siblings, poseidon.HashOut{})
		}
	}
	both := func(a, b func(*fri.Proof)) func(*fri.Proof) {
		return func(p *fri.Proof) { a(p); b(p) }
	}
	ts := []tamper{
		{"row value, first oracle", rowValue(early, 0)},
		{"row value, last oracle", rowValue(late, lastO)},
		{"row width", rowWidth(early, lastO)},
		{"row sibling", rowSibling(late, 0)},
		{"row path length", rowPath(early, 0)},
		{"oracle row count", func(p *fri.Proof) {
			r := &p.QueryRounds[late]
			r.OracleRows = r.OracleRows[:len(r.OracleRows)-1]
		}},
		{"final poly coefficient", func(p *fri.Proof) { p.FinalPoly[0] = bumpExt(p.FinalPoly[0]) }},
		{"final poly length", func(p *fri.Proof) { p.FinalPoly = p.FinalPoly[1:] }},
		{"pow witness", func(p *fri.Proof) { p.PowWitness = bump(p.PowWitness) }},
		{"query count, one fewer", func(p *fri.Proof) { p.QueryRounds = p.QueryRounds[1:] }},
		{"query count, one more", func(p *fri.Proof) {
			p.QueryRounds = append(p.QueryRounds, p.QueryRounds[0])
		}},
		{"row value early, path length late", both(rowValue(early, 0), rowPath(late, lastO))},
		{"path length early, row value late", both(rowPath(early, lastO), rowValue(late, 0))},
		{"row sibling and row width in one query", both(rowSibling(early, 0), rowWidth(early, lastO))},
		{"row sibling, last query", rowSibling(last, lastO)},
		{"row width, last query", rowWidth(last, 0)},
		{"row sibling and path length in one chunk", both(rowSibling(2, 0), rowPath(5, lastO))},
		{"path length and row value in one chunk", both(rowPath(2, 0), rowValue(5, lastO))},
	}
	if numQueries > 8 {
		ts = append(ts,
			tamper{"row value before the chunk edge, path length after", both(rowValue(7, 0), rowPath(8, 0))},
			tamper{"path length before the chunk edge, row sibling after", both(rowPath(7, lastO), rowSibling(8, lastO))},
		)
	}
	if numLayers == 0 {
		return ts
	}
	return append(ts,
		tamper{"fold pair, first layer", foldPair(early, 0, 0)},
		tamper{"fold pair, last layer", foldPair(late, lastL, 1)},
		tamper{"fold step sibling", stepSibling(late, lastL)},
		tamper{"fold step path length", stepPath(early, 0)},
		tamper{"fold step count", func(p *fri.Proof) {
			r := &p.QueryRounds[early]
			r.Steps = r.Steps[:len(r.Steps)-1]
		}},
		tamper{"commit-phase cap digest", func(p *fri.Proof) {
			c := p.CommitPhaseCaps[lastL]
			c[0][1] = bump(c[0][1])
		}},
		tamper{"commit-phase cap count", func(p *fri.Proof) {
			p.CommitPhaseCaps = p.CommitPhaseCaps[:numLayers-1]
		}},
		tamper{"commit-phase cap size", func(p *fri.Proof) {
			p.CommitPhaseCaps[0] = p.CommitPhaseCaps[0][1:]
		}},
		tamper{"step sibling early, fold pair late", both(stepSibling(early, 0), foldPair(late, 0, 0))},
		tamper{"fold pair early, step path late", both(foldPair(early, lastL, 1), stepPath(late, lastL))},
		tamper{"step path early, row sibling late", both(stepPath(early, lastL), rowSibling(late, lastO))},
		tamper{"fold pair, last query", foldPair(last, lastL, 0)},
		tamper{"step sibling and fold pair in one chunk", both(stepSibling(3, 0), foldPair(6, lastL, 1))},
	)
}

// errClass names the fri error class err carries.
func errClass(err error) string {
	switch {
	case err == nil:
		return "accepted"
	case errors.Is(err, fri.ErrProofShape):
		return "shape"
	case errors.Is(err, fri.ErrProofInvalid):
		return "invalid"
	}
	return "unclassified"
}

// TestVerifyMatchesSerialReference tampers with honest plonk and stark
// proofs and checks that fri.Verify, which checks its queries in chunks
// across the worker pool and batches each chunk's Merkle paths, returns
// the serial reference's exact error string and class on each, and
// accepts the honest proofs as it does, with the pool at one, two and
// seven workers and in serial mode.
func TestVerifyMatchesSerialReference(t *testing.T) {
	prev := parallel.Workers()
	defer func() { parallel.SetSerial(false); parallel.SetWorkers(prev) }()
	modes := []struct {
		name    string
		workers int
		serial  bool
	}{{"workers=1", 1, false}, {"workers=2", 2, false}, {"workers=7", 7, false}, {"serial", prev, true}}

	plonky := fri.PlonkyConfig()
	plonky.ProofOfWorkBits = 8
	starky := fri.StarkyConfig()
	starky.ProofOfWorkBits = 8
	instances := []friInstance{
		plonkInstance(t, fri.TestConfig(), 40),
		plonkInstance(t, plonky, 200),
		starkInstance(t, fri.TestConfig(), 6),
		starkInstance(t, starky, 8),
	}
	for _, in := range instances {
		check := func(what string, p *fri.Proof, want error) {
			for _, m := range modes {
				parallel.SetWorkers(m.workers)
				parallel.SetSerial(m.serial)
				got := fri.Verify(in.oracles, in.groups, in.opened, p, in.transcript(), in.cfg, in.logN)
				if (got == nil) != (want == nil) || got != nil && (got.Error() != want.Error() || errClass(got) != errClass(want)) {
					t.Errorf("%s: %s, %s:\n got  %s %v\n want %s %v", in.name, what, m.name, errClass(got), got, errClass(want), want)
				}
			}
		}
		if want := refVerify(in.oracles, in.groups, in.opened, in.proof, in.transcript(), in.cfg, in.logN); want != nil {
			t.Fatalf("%s: the reference rejects the honest proof: %v", in.name, want)
		}
		check("honest proof", in.proof, nil)
		for _, tc := range tampers(len(in.oracles), len(in.proof.CommitPhaseCaps), len(in.proof.QueryRounds)) {
			p := cloneProof(in.proof)
			tc.fn(p)
			want := refVerify(in.oracles, in.groups, in.opened, p, in.transcript(), in.cfg, in.logN)
			if want == nil {
				t.Fatalf("%s: %s: the reference accepts the tampered proof", in.name, tc.name)
			}
			check(tc.name, p, want)
		}
	}
}
