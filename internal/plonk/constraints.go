package plonk

import (
	"unizk/internal/constraint"
	"unizk/internal/field"
)

// layout names the columns of plonk's constraint programs, laid out in
// oracle order: [constants 8R | wires 3R | Z R | PI | x]. The constants
// are 5 selectors per repetition, then one σ per wire column; Z holds
// the grand product Z = π_0 and the partial products π_1..π_{R−1}; x is
// the evaluation point.
type layout struct{ reps int }

func (l layout) sel(rep, k int) int { return 5*rep + k }
func (l layout) sigma(col int) int  { return 5*l.reps + col }
func (l layout) wire(col int) int   { return 8*l.reps + col }
func (l layout) z(j int) int        { return 11*l.reps + j }
func (l layout) pi() int            { return 12 * l.reps }
func (l layout) x() int             { return 12*l.reps + 1 }
func (l layout) width() int         { return 12*l.reps + 2 }

// constraints writes plonk's constraints once, in α order, over the
// layout's columns, with β and γ as challenges 0 and 1:
//
//   - R gates qL·a + qR·b + qM·a·b + qO·c + qC, plus PI on repetition 0
//     (EveryRow);
//   - R permutation-chain links π_{j+1}·Π(w + β·σ + γ) − π_j·Π(w + β·k·x + γ)
//     over column group j, with π_R = Z(g·x) (EveryRow);
//   - n⁻¹·(Z − 1) (FirstRow), which is L1·(Z − 1)/Z_H.
//
// The first R are the gates, which hold on the trace before any
// challenge is drawn. factors are the links' group products
// f_0..f_{R−1}, g_0..g_{R−1}, from which the prover builds Z.
func constraints(reps, logN int, ks []field.Element) (cs, factors []constraint.Constraint) {
	l := layout{reps}
	col, every := constraint.Col, constraint.EveryRow
	cs = make([]constraint.Constraint, 0, 2*reps+1)
	factors = make([]constraint.Constraint, 2*reps)
	for rep := 0; rep < reps; rep++ {
		q := func(k int) *constraint.Expr { return col(l.sel(rep, k)) }
		a, b, c := col(l.wire(3*rep)), col(l.wire(3*rep+1)), col(l.wire(3*rep+2))
		gate := constraint.Add(constraint.Add(constraint.Add(constraint.Add(
			constraint.Mul(q(0), a), constraint.Mul(q(1), b)),
			constraint.Mul(q(2), constraint.Mul(a, b))),
			constraint.Mul(q(3), c)), q(4))
		if rep == 0 {
			gate = constraint.Add(gate, col(l.pi()))
		}
		cs = append(cs, constraint.Constraint{Expr: gate, Class: every})
	}

	beta, gamma := constraint.Challenge(0), constraint.Challenge(1)
	betaX := constraint.Mul(beta, col(l.x()))
	for grp := 0; grp < reps; grp++ {
		var f, g *constraint.Expr
		for k := 0; k < groupCols; k++ {
			c := groupCols*grp + k
			w := col(l.wire(c))
			fk := constraint.Add(constraint.Add(w, constraint.Mul(constraint.Const(ks[c]), betaX)), gamma)
			gk := constraint.Add(constraint.Add(w, constraint.Mul(beta, col(l.sigma(c)))), gamma)
			if f == nil {
				f, g = fk, gk
			} else {
				f, g = constraint.Mul(f, fk), constraint.Mul(g, gk)
			}
		}
		next := constraint.Next(l.z(0))
		if grp < reps-1 {
			next = col(l.z(grp + 1))
		}
		link := constraint.Sub(constraint.Mul(next, g), constraint.Mul(col(l.z(grp)), f))
		cs = append(cs, constraint.Constraint{Expr: link, Class: every})
		factors[grp] = constraint.Constraint{Expr: f, Class: every}
		factors[reps+grp] = constraint.Constraint{Expr: g, Class: every}
	}

	nInv := field.Inverse(field.New(uint64(1) << logN))
	boundary := constraint.Mul(constraint.Const(nInv), constraint.Sub(col(l.z(0)), constraint.Const(field.One)))
	return append(cs, constraint.Constraint{Expr: boundary, Class: constraint.FirstRow}), factors
}

// traceColumns lays the trace out for the gate and factor programs: the
// constants, the wires, the PI column and the rows' points, with Z left
// nil.
func (c *Circuit) traceColumns(wires [][]field.Element, pi []field.Element) [][]field.Element {
	l := layout{c.Reps}
	cols := make([][]field.Element, l.width())
	copy(cols, c.selectors)
	copy(cols[l.sigma(0):], c.sigmaVals)
	copy(cols[l.wire(0):], wires)
	cols[l.pi()], cols[l.x()] = pi, c.rowPoints
	return cols
}
