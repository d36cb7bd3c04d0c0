// Package stark implements a Starky-style STARK (paper §2.2): the
// computation is an Algebraic Execution Trace (AET) whose adjacent rows
// satisfy transition constraints and whose first/last rows satisfy
// input/output constraints (paper Fig. 2). The prover commits the trace
// and a constraint quotient with FRI (blowup factor 2) and opens them at
// a random extension point.
package stark

import "unizk/internal/field"

// Expr is a constraint expression over the current row's columns (Col) and
// the next row's columns (Next). New compiles an AIR's expressions into one
// register program, which the prover runs over base-field tiles and the
// verifier at an extension point.
type Expr struct {
	op   opKind
	a, b *Expr
	col  int
	val  field.Element
}

type opKind int

const (
	opCol opKind = iota
	opNext
	opConst
	opAdd
	opSub
	opMul
)

// Col refers to column i of the current row.
func Col(i int) *Expr { return &Expr{op: opCol, col: i} }

// Next refers to column i of the next row.
func Next(i int) *Expr { return &Expr{op: opNext, col: i} }

// Const is a constant.
func Const(v field.Element) *Expr { return &Expr{op: opConst, val: v} }

// Add returns a + b.
func Add(a, b *Expr) *Expr { return &Expr{op: opAdd, a: a, b: b} }

// Sub returns a - b.
func Sub(a, b *Expr) *Expr { return &Expr{op: opSub, a: a, b: b} }

// Mul returns a · b.
func Mul(a, b *Expr) *Expr { return &Expr{op: opMul, a: a, b: b} }

// Degree returns the multiplicative degree of the expression in the trace
// columns, which bounds the quotient polynomial degree.
func (e *Expr) Degree() int {
	switch e.op {
	case opCol, opNext:
		return 1
	case opConst:
		return 0
	case opAdd, opSub:
		return max(e.a.Degree(), e.b.Degree())
	case opMul:
		return e.a.Degree() + e.b.Degree()
	default:
		panic("stark: unknown expression op")
	}
}

// MaxCol returns the largest column index referenced.
func (e *Expr) MaxCol() int {
	switch e.op {
	case opCol, opNext:
		return e.col
	case opConst:
		return -1
	default:
		return max(e.a.MaxCol(), e.b.MaxCol())
	}
}
