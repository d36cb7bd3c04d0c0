package stark

import (
	"context"
	"math/rand"
	"testing"

	"unizk/internal/constraint"
	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/ntt"
)

// refQuotient is the reference for computeQuotient: a per-point loop in
// natural order that evaluates the verifier's constraint sum, with its
// own extension-field inverses, at every coset point x_j (as an
// extension element with zero upper half). It shares the compiled
// program with the prover, but none of the tiles, the gathers, the
// class-factored α walk or the divisor vectors.
func (s *Stark) refQuotient(ctx context.Context, traceBatch *fri.PolynomialBatch,
	alpha field.Element) ([][]field.Element, error) {

	n := s.N
	d := 4 * n
	shift := field.MultiplicativeGenerator

	cols := make([][]field.Element, s.Width)
	for i := range cols {
		cols[i] = make([]field.Element, d)
	}
	if err := ntt.Columns(ctx, cols, traceBatch.Coeffs[:s.Width], ntt.Spec{Shift: shift}); err != nil {
		return nil, err
	}
	w := field.PrimitiveRootOfUnity(s.LogN + 2)
	local := make([]field.Ext, s.Width)
	next := make([]field.Ext, s.Width)
	t := make([]field.Element, d)
	x := shift
	for j := range t {
		for c := range cols {
			local[c] = field.FromBase(cols[c][j])
			next[c] = field.FromBase(cols[c][(j+4)%d])
		}
		t[j] = s.prog.EvalExt(local, next, nil, alpha, field.FromBase(x)).A
		x = field.Mul(x, w)
	}
	if err := ntt.Transform(ctx, t, ntt.Spec{Inverse: true, Shift: shift}); err != nil {
		return nil, err
	}
	chunks := make([][]field.Element, constraint.QuotientChunks)
	for i := range chunks {
		chunks[i] = t[i*n : (i+1)*n]
	}
	return chunks, nil
}

// naturalQuotient is computeQuotient's natural-order form: every column
// re-extended onto the whole coset g·H_4N, points in natural order. The
// bit-reversed quotient must match it bit for bit.
func (s *Stark) naturalQuotient(ctx context.Context, traceBatch *fri.PolynomialBatch,
	alpha field.Element) ([][]field.Element, error) {

	cols := make([][]field.Element, s.Width)
	for i := range cols {
		cols[i] = make([]field.Element, 4*s.N)
	}
	err := ntt.Columns(ctx, cols, traceBatch.Coeffs[:s.Width], ntt.Spec{Shift: field.MultiplicativeGenerator})
	if err != nil {
		return nil, err
	}
	return s.prog.Quotient(ctx, constraint.Natural(cols), nil, alpha, nil)
}

// QuotientAndReference commits columns and returns computeQuotient's,
// naturalQuotient's and refQuotient's chunks for the same α, for the
// cross-package test over the workload AIRs.
func (s *Stark) QuotientAndReference(columns [][]field.Element, alpha field.Element) (got, natural, want [][]field.Element, err error) {
	ctx := context.Background()
	traceBatch, err := fri.CommitValues(ctx, columns, s.cfg.RateBits, s.cfg.CapHeight, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	if got, err = s.computeQuotient(ctx, traceBatch, alpha, nil); err != nil {
		return nil, nil, nil, err
	}
	if natural, err = s.naturalQuotient(ctx, traceBatch, alpha); err != nil {
		return nil, nil, nil, err
	}
	want, err = s.refQuotient(ctx, traceBatch, alpha)
	return got, natural, want, err
}

// extEval evaluates one expression over extension-field rows.
type extEval func(local, next []field.Ext) field.Ext

// randAIR builds a random AIR over width columns: count transitions of
// degree ≤ 4 drawn from one random DAG, so subexpressions are shared
// across transitions, and up to two boundaries on each end. Beside each
// transition it builds an evaluator, so the test checks the compiled
// program without looking inside the expressions.
func randAIR(rng *rand.Rand, width, count, nodes int) (AIR, []extEval) {
	type node struct {
		e  *constraint.Expr
		ev extEval
	}
	leaf := func() node {
		c := rng.Intn(width)
		switch rng.Intn(4) {
		case 0:
			v := field.New(uint64(rng.Intn(3)))
			return node{constraint.Const(v), func(_, _ []field.Ext) field.Ext { return field.FromBase(v) }}
		case 1:
			return node{constraint.Next(c), func(_, next []field.Ext) field.Ext { return next[c] }}
		default:
			return node{constraint.Col(c), func(local, _ []field.Ext) field.Ext { return local[c] }}
		}
	}
	// Every new node has one leaf operand, so an expression unfolds to a
	// tree no larger than the DAG (New walks it to check degrees).
	pool := []node{leaf(), leaf()}
	for i := 0; i < nodes; i++ {
		a, b := pool[rng.Intn(len(pool))], leaf()
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		var n node
		switch rng.Intn(3) {
		case 0:
			n = node{constraint.Add(a.e, b.e), func(l, x []field.Ext) field.Ext { return field.ExtAdd(a.ev(l, x), b.ev(l, x)) }}
		case 1:
			n = node{constraint.Sub(a.e, b.e), func(l, x []field.Ext) field.Ext { return field.ExtSub(a.ev(l, x), b.ev(l, x)) }}
		default:
			n = node{constraint.Mul(a.e, b.e), func(l, x []field.Ext) field.Ext { return field.ExtMul(a.ev(l, x), b.ev(l, x)) }}
		}
		if n.e.Degree() <= maxConstraintDegree {
			pool = append(pool, n)
		}
	}
	air := AIR{Width: width}
	var evs []extEval
	for range count {
		n := pool[len(pool)-1-rng.Intn(min(len(pool), 2*count))]
		air.Transitions = append(air.Transitions, n.e)
		evs = append(evs, n.ev)
	}
	for range rng.Intn(3) {
		air.FirstRow = append(air.FirstRow, Boundary{Col: rng.Intn(width), Value: field.New(rng.Uint64())})
	}
	for range rng.Intn(3) {
		air.LastRow = append(air.LastRow, Boundary{Col: rng.Intn(width), Value: field.New(rng.Uint64())})
	}
	return air, evs
}

// FuzzConstraintProgram checks stark's compiled constraints on random
// AIRs against evaluators built beside the expressions: at a random
// extension point, the verifier's constraint sum must equal Σ α^i times
// each transition over Z_H/(ζ − g^{N−1}) and each boundary over its row's
// vanishing factor, in α order.
func FuzzConstraintProgram(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed%8), uint8(seed+1), uint8(5*seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, width, count, nodes uint8) {
		rng := rand.New(rand.NewSource(seed))
		logN := 2 + rng.Intn(6)
		air, evs := randAIR(rng, 1+int(width)%8, 1+int(count)%12, int(nodes)%64)
		s, err := New(air, logN, fri.TestConfig())
		if err != nil {
			t.Fatal(err)
		}
		rndExt := func() field.Ext { return field.NewExt(rng.Uint64(), rng.Uint64()) }
		local, next := make([]field.Ext, air.Width), make([]field.Ext, air.Width)
		for c := range local {
			local[c], next[c] = rndExt(), rndExt()
		}
		alpha, zeta := field.New(rng.Uint64()), rndExt()

		gLast := field.FromBase(field.Exp(field.PrimitiveRootOfUnity(logN), uint64(s.N-1)))
		zh := field.ExtSub(field.ExtExp(zeta, uint64(s.N)), field.ExtOne)
		transDiv := field.ExtMul(field.ExtSub(zeta, gLast), field.ExtInverse(zh))
		firstDiv := field.ExtInverse(field.ExtSub(zeta, field.ExtOne))
		lastDiv := field.ExtInverse(field.ExtSub(zeta, gLast))
		want, a := field.ExtZero, field.ExtOne
		add := func(v, div field.Ext) {
			want = field.ExtAdd(want, field.ExtMul(a, field.ExtMul(v, div)))
			a = field.ExtMul(a, field.FromBase(alpha))
		}
		for _, ev := range evs {
			add(ev(local, next), transDiv)
		}
		for _, b := range air.FirstRow {
			add(field.ExtSub(local[b.Col], field.FromBase(b.Value)), firstDiv)
		}
		for _, b := range air.LastRow {
			add(field.ExtSub(local[b.Col], field.FromBase(b.Value)), lastDiv)
		}
		if got := s.prog.EvalExt(local, next, nil, alpha, zeta); got != want {
			t.Fatalf("constraint sum %v, evaluators %v", got, want)
		}
	})
}
