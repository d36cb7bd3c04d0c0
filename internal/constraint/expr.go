// Package constraint is the one constraint evaluator both proof systems
// use (paper §5.4–5.5). A constraint is an expression over a row's
// columns with a divisor class. Compile lowers a constraint set once into
// a flat register program; the prover's quotient driver runs it over
// point tiles of the coset g·H_4N, the trace sanity check over the rows,
// and the verifiers at one extension point.
package constraint

import "unizk/internal/field"

// Expr is a constraint expression over the current row's columns (Col),
// the next row's columns (Next), constants, and per-run challenges.
type Expr struct {
	op   opKind
	a, b *Expr
	col  int // column, or challenge index
	val  field.Element
}

type opKind int

const (
	opCol opKind = iota
	opNext
	opConst
	opChallenge
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

// Challenge is challenge k of a run, read from the slice the run is given,
// so a program that uses transcript challenges compiles once.
func Challenge(k int) *Expr { return &Expr{op: opChallenge, col: k} }

// Add returns a + b.
func Add(a, b *Expr) *Expr { return &Expr{op: opAdd, a: a, b: b} }

// Sub returns a - b.
func Sub(a, b *Expr) *Expr { return &Expr{op: opSub, a: a, b: b} }

// Mul returns a · b.
func Mul(a, b *Expr) *Expr { return &Expr{op: opMul, a: a, b: b} }

// Degree returns the multiplicative degree of the expression in the
// columns, which bounds the quotient polynomial degree.
func (e *Expr) Degree() int {
	switch e.op {
	case opCol, opNext:
		return 1
	case opConst, opChallenge:
		return 0
	case opAdd, opSub:
		return max(e.a.Degree(), e.b.Degree())
	case opMul:
		return e.a.Degree() + e.b.Degree()
	default:
		panic("constraint: unknown expression op")
	}
}

// MaxCol returns the largest column index referenced, or -1.
func (e *Expr) MaxCol() int {
	switch e.op {
	case opCol, opNext:
		return e.col
	case opConst, opChallenge:
		return -1
	default:
		return max(e.a.MaxCol(), e.b.MaxCol())
	}
}

// Class is where a constraint must vanish on the trace domain H, and so
// what its quotient term is divided by (Starky's consumer classes).
type Class uint8

const (
	// EveryRow constraints vanish on all of H: ÷ Z_H.
	EveryRow Class = iota
	// Transition constraints vanish on every row but the last:
	// ÷ Z_H/(x − g^{N−1}).
	Transition
	// FirstRow constraints vanish on the first row: ÷ (x − 1).
	FirstRow
	// LastRow constraints vanish on the last row: ÷ (x − g^{N−1}).
	LastRow
	numClasses
)

// Constraint is one expression and its divisor class.
type Constraint struct {
	Expr  *Expr
	Class Class
}
