package constraint

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"unizk/internal/field"
	"unizk/internal/ntt"
)

// cosetValues evaluates a coefficient vector of at most 4N entries on
// the coset g·H_4N, in natural order.
func cosetValues(coeffs []field.Element, d int) []field.Element {
	v := make([]field.Element, d)
	copy(v, coeffs)
	if err := ntt.Transform(context.Background(), v, ntt.Spec{Shift: field.MultiplicativeGenerator}); err != nil {
		panic(err)
	}
	return v
}

// knownQuotient builds, for a trace of 2^logN rows, coset columns whose
// constraints have known quotients: five random polynomials A..E of
// degree < 3N, one per class plus a next-row read, hidden as
//
//	col1 = col0 + Z_H·A                (EveryRow:   col1 − col0)
//	col2 = β + (x − 1)·B               (FirstRow:   col2 − β)
//	col3 = v + (x − g^{N−1})·C         (LastRow:    col3 − v)
//	col4 = Z_H/(x − g^{N−1})·D         (Transition: col4)
//	col5 = col0(g·x) − Z_H·E           (EveryRow:   Next(col0) − col5)
//
// with col0 random of degree < N. It returns the constraints, the
// columns in natural order, β, and the quotient's coefficients for α:
// A + α·B + α²·C + α³·D + α⁴·E.
func knownQuotient(rng *rand.Rand, logN int, alpha field.Element) ([]Constraint, [][]field.Element, field.Element, []field.Element) {
	n := 1 << logN
	d := 4 * n
	randPoly := func(deg int) []field.Element {
		c := make([]field.Element, deg)
		for i := range c {
			c[i] = field.New(rng.Uint64())
		}
		return c
	}
	beta, v := field.New(rng.Uint64()), field.New(rng.Uint64())
	gLast := field.Exp(field.PrimitiveRootOfUnity(logN), uint64(n-1))
	polys := [5][]field.Element{}
	vals := [5][]field.Element{}
	for k := range polys {
		polys[k] = randPoly(3 * n)
		vals[k] = cosetValues(polys[k], d)
	}
	cols := make([][]field.Element, 6)
	cols[0] = cosetValues(randPoly(n), d)
	for c := 1; c < 6; c++ {
		cols[c] = make([]field.Element, d)
	}
	w := field.PrimitiveRootOfUnity(logN + 2)
	x := field.MultiplicativeGenerator
	for j := 0; j < d; j++ {
		zh := field.Sub(field.Exp(x, uint64(n)), field.One)
		cols[1][j] = field.Add(cols[0][j], field.Mul(zh, vals[0][j]))
		cols[2][j] = field.Add(beta, field.Mul(field.Sub(x, field.One), vals[1][j]))
		cols[3][j] = field.Add(v, field.Mul(field.Sub(x, gLast), vals[2][j]))
		cols[4][j] = field.Mul(field.Div(zh, field.Sub(x, gLast)), vals[3][j])
		cols[5][j] = field.Sub(cols[0][(j+4)%d], field.Mul(zh, vals[4][j]))
		x = field.Mul(x, w)
	}
	cs := []Constraint{
		{Expr: Sub(Col(1), Col(0)), Class: EveryRow},
		{Expr: Sub(Col(2), Challenge(0)), Class: FirstRow},
		{Expr: Sub(Col(3), Const(v)), Class: LastRow},
		{Expr: Col(4), Class: Transition},
		{Expr: Sub(Next(0), Col(5)), Class: EveryRow},
	}
	want := make([]field.Element, 3*n)
	a := field.One
	for _, p := range polys {
		for i, c := range p {
			want[i] = field.MulAdd(a, c, want[i])
		}
		a = field.Mul(a, alpha)
	}
	return cs, cols, beta, want
}

// bitReversed returns the columns permuted into bit-reversed order.
func bitReversed(cols [][]field.Element) [][]field.Element {
	out := make([][]field.Element, len(cols))
	for c, col := range cols {
		out[c] = append([]field.Element(nil), col...)
		ntt.BitReversePermute(out[c])
	}
	return out
}

// TestQuotientRecoversKnownQuotient runs the quotient driver on columns
// whose quotient is known, in both stored orders, so the divisors of all
// four classes, the class-factored α walk, the next-row rotation and
// gather and both interpolations are checked against plain polynomial
// arithmetic.
func TestQuotientRecoversKnownQuotient(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for logN := 2; logN <= 8; logN++ {
		alpha := field.New(rng.Uint64())
		cs, cols, beta, want := knownQuotient(rng, logN, alpha)
		p := Compile(logN, cs)
		for _, c := range []Coset{Natural(cols), BitReversed(bitReversed(cols))} {
			name := fmt.Sprintf("2^%d/bit-reversed=%v", logN, c.br)
			chunks, err := p.Quotient(ctx, c, []field.Element{beta}, alpha, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			n := 1 << logN
			for k, chunk := range chunks {
				for i, got := range chunk {
					if got != want[k*n+i] {
						t.Fatalf("%s: chunk %d coefficient %d: got %v, want %v", name, k, i, got, want[k*n+i])
					}
				}
			}
		}
	}
	// One coefficient past the bound is a constraint-system bug.
	cs, cols, beta, _ := knownQuotient(rng, 4, field.One)
	cs[3].Expr = Mul(Col(4), Col(4))
	if _, err := Compile(4, cs).Quotient(ctx, Natural(cols), []field.Element{beta}, field.One, nil); err == nil {
		t.Fatal("over-degree quotient accepted")
	}
}

// TestQuotientTileLoopAllocs pins the quotient's tile loop — the program
// run and the class-factored α-combination over one chunk of tiles, with
// a checked-out register file — at zero allocations, on a stark-shaped
// program in natural order and a plonk-shaped one, with challenge leaves
// and a gathered next-row read, in bit-reversed order. The chunk ends at
// the coset's end, so its last natural-order tiles wrap their next-row
// reads, and its length is not a multiple of the tile.
func TestQuotientTileLoopAllocs(t *testing.T) {
	ctx := context.Background()
	const logN = 8
	d := 4 << logN
	rng := rand.New(rand.NewSource(3))
	cols := make([][]field.Element, 4)
	for c := range cols {
		cols[c] = make([]field.Element, d)
		for j := range cols[c] {
			cols[c][j] = field.New(rng.Uint64())
		}
	}
	stark := []Constraint{
		{Expr: Sub(Next(0), Col(1)), Class: Transition},
		{Expr: Sub(Next(1), Add(Col(0), Col(1))), Class: Transition},
		{Expr: Sub(Col(0), Const(field.One)), Class: FirstRow},
		{Expr: Sub(Col(1), Const(field.Two)), Class: LastRow},
	}
	beta, gamma := Challenge(0), Challenge(1)
	plonk := []Constraint{
		{Expr: Add(Mul(Col(0), Col(1)), Col(2)), Class: EveryRow},
		{Expr: Sub(Mul(Next(3), Add(Add(Col(1), Mul(beta, Col(2))), gamma)),
			Mul(Col(3), Add(Add(Col(1), Mul(beta, Col(0))), gamma))), Class: EveryRow},
		{Expr: Sub(Col(3), Const(field.One)), Class: FirstRow},
	}
	for _, tc := range []struct {
		name string
		cs   []Constraint
		c    Coset
	}{
		{"stark-shaped/natural", stark, Natural(cols)},
		{"plonk-shaped/bit-reversed", plonk, BitReversed(cols)},
	} {
		p := Compile(logN, tc.cs)
		q := p.getQuotient()
		if err := q.reset(ctx, tc.c, []field.Element{field.New(5), field.New(9)}, field.New(7)); err != nil {
			t.Fatal(err)
		}
		rf := p.getRegs()
		out := make([]field.Element, d)
		lo := d - grain - tile/2
		if avg := testing.AllocsPerRun(100, func() { q.tiles(rf, lo, d, out) }); avg != 0 {
			t.Errorf("%s: quotient tile loop: %.1f allocs/run, want 0", tc.name, avg)
		}
		p.putRegs(rf)
		p.putQuotient(q)
	}
}
