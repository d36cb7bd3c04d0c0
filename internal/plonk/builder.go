// Package plonk implements a Plonky2-style proof system: a Plonk PIOP
// (gate constraints, copy constraints via a permutation argument, a grand
// product Z polynomial built with the quotient-chunk partial products of
// paper §5.4) with FRI as the polynomial commitment scheme — the two
// halves of paper Fig. 1. Circuits use the classic 3-wire vanilla Plonk
// row (see DESIGN.md §2.6 for the substitution relative to Plonky2's
// 135-wire custom gates; the kernel mix the accelerator sees is preserved
// and circuit width is a separate parameter of the workload models).
package plonk

import (
	"fmt"
	"slices"
	"unsafe"

	"unizk/internal/field"
)

// numWires is the number of routed wire columns per row (a, b, c).
const numWires = 3

// Target identifies one wire slot of the circuit.
type Target struct {
	Row, Col int
}

// Builder constructs a circuit. Each gate occupies one row with selector
// values (qL, qR, qM, qO, qC) enforcing
//
//	qL·a + qR·b + qM·a·b + qO·c + qC + PI(x) = 0.
type Builder struct {
	qL, qR, qM, qO, qC []field.Element

	// parent is a union-find over wire slots implementing copy
	// constraints, indexed by slot id Row·3 + Col; addRow grows it by one
	// row of singletons, and BuildWide resolves it into dense classes.
	parent []int32

	// pubTargets are the a-slots of the public input rows (which must be
	// the first rows, so the verifier's PI polynomial evaluation matches).
	pubTargets []Target

	// generators compute derived witness values in insertion order.
	generators []func(w *Witness)
}

// NewBuilder returns an empty circuit builder.
func NewBuilder() *Builder { return &Builder{} }

// NumRows returns the number of gate rows added so far.
func (b *Builder) NumRows() int { return len(b.qL) }

func (b *Builder) addRow(ql, qr, qm, qo, qc field.Element) int {
	b.qL = append(b.qL, ql)
	b.qR = append(b.qR, qr)
	b.qM = append(b.qM, qm)
	b.qO = append(b.qO, qo)
	b.qC = append(b.qC, qc)
	for i := 0; i < numWires; i++ {
		b.parent = append(b.parent, int32(len(b.parent)))
	}
	return len(b.qL) - 1
}

func slotA(row int) Target { return Target{Row: row, Col: 0} }
func slotB(row int) Target { return Target{Row: row, Col: 1} }
func slotC(row int) Target { return Target{Row: row, Col: 2} }

// slot returns t's slot id, Row·3 + Col, and whether t is one of the
// first rows·3 slots.
func (t Target) slot(rows int) (int, bool) {
	if uint(t.Col) >= numWires || uint(t.Row) >= uint(rows) {
		return 0, false
	}
	return t.Row*numWires + t.Col, true
}

// root returns the union-find representative of slot s, halving the
// path as it walks.
func (b *Builder) root(s int32) int32 {
	for b.parent[s] != s {
		b.parent[s] = b.parent[b.parent[s]]
		s = b.parent[s]
	}
	return s
}

// Connect adds a copy constraint between two targets: they must carry the
// same value, enforced by the permutation argument. Both must be slots of
// rows already added.
func (b *Builder) Connect(x, y Target) {
	sx, okx := x.slot(len(b.qL))
	sy, oky := y.slot(len(b.qL))
	if !okx || !oky {
		panic(fmt.Sprintf("plonk: Connect(%v, %v): target outside the %d rows added", x, y, len(b.qL)))
	}
	rx, ry := b.root(int32(sx)), b.root(int32(sy))
	if rx != ry {
		b.parent[rx] = ry
	}
}

// AddPublicInput reserves a public input row and returns its target.
// Public inputs must be added before any other gates.
func (b *Builder) AddPublicInput() Target {
	if len(b.qL) != len(b.pubTargets) {
		panic("plonk: public inputs must be added before other gates")
	}
	// Row constraint: a + PI = 0 with PI = -value, i.e. a = value.
	row := b.addRow(field.One, 0, 0, 0, 0)
	t := slotA(row)
	b.pubTargets = append(b.pubTargets, t)
	return t
}

// AddVirtual returns a fresh unconstrained target (an a-slot of a new row
// with all-zero selectors), typically used for private inputs.
func (b *Builder) AddVirtual() Target {
	row := b.addRow(0, 0, 0, 0, 0)
	return slotA(row)
}

// Constant returns a target constrained to the constant v.
func (b *Builder) Constant(v field.Element) Target {
	// qO·c + qC = 0 with qO = -1, qC = v  =>  c = v.
	row := b.addRow(0, 0, 0, field.Neg(field.One), v)
	out := slotC(row)
	b.generators = append(b.generators, func(w *Witness) {
		w.Set(out, v)
	})
	return out
}

// binaryGate adds a row computing c from a and b, connecting the row's
// input slots to x and y, with a witness generator fn.
func (b *Builder) binaryGate(x, y Target, ql, qr, qm, qc field.Element,
	fn func(a, bv field.Element) field.Element) Target {
	row := b.addRow(ql, qr, qm, field.Neg(field.One), qc)
	b.Connect(slotA(row), x)
	b.Connect(slotB(row), y)
	out := slotC(row)
	b.generators = append(b.generators, func(w *Witness) {
		w.Set(out, fn(w.Get(x), w.Get(y)))
	})
	return out
}

// Add returns a target for x + y.
func (b *Builder) Add(x, y Target) Target {
	return b.binaryGate(x, y, field.One, field.One, 0, 0, field.Add)
}

// Sub returns a target for x - y.
func (b *Builder) Sub(x, y Target) Target {
	return b.binaryGate(x, y, field.One, field.Neg(field.One), 0, 0, field.Sub)
}

// Mul returns a target for x · y.
func (b *Builder) Mul(x, y Target) Target {
	return b.binaryGate(x, y, 0, 0, field.One, 0, field.Mul)
}

// MulAdd returns a target for x·y + z (two rows).
func (b *Builder) MulAdd(x, y, z Target) Target {
	return b.Add(b.Mul(x, y), z)
}

// AddConst returns a target for x + c.
func (b *Builder) AddConst(x Target, c field.Element) Target {
	row := b.addRow(field.One, 0, 0, field.Neg(field.One), c)
	b.Connect(slotA(row), x)
	out := slotC(row)
	b.generators = append(b.generators, func(w *Witness) {
		w.Set(out, field.Add(w.Get(x), c))
	})
	return out
}

// MulConst returns a target for c·x.
func (b *Builder) MulConst(c field.Element, x Target) Target {
	row := b.addRow(c, 0, 0, field.Neg(field.One), 0)
	b.Connect(slotA(row), x)
	out := slotC(row)
	b.generators = append(b.generators, func(w *Witness) {
		w.Set(out, field.Mul(c, w.Get(x)))
	})
	return out
}

// AssertEqual constrains x == y.
func (b *Builder) AssertEqual(x, y Target) { b.Connect(x, y) }

// AssertZero constrains x == 0.
func (b *Builder) AssertZero(x Target) {
	row := b.addRow(field.One, 0, 0, 0, 0)
	b.Connect(slotA(row), x)
}

// AssertBool constrains x ∈ {0, 1} via x·x = x.
func (b *Builder) AssertBool(x Target) {
	// qM·a·b + qO·c = 0 with a=b=x and c connected to x: x² - x = 0.
	row := b.addRow(0, 0, field.One, field.Neg(field.One), 0)
	b.Connect(slotA(row), x)
	b.Connect(slotB(row), x)
	b.Connect(slotC(row), x)
}

// Witness assigns values to wire slots. It holds one value per copy
// class, indexed by the class table BuildWide resolved, so
// copy-constrained slots are consistent by construction and a read is two
// slice loads.
type Witness struct {
	circuit *Circuit
	// values[k] is copy class k's value, zero until set; set is the
	// bitmap of the classes assigned so far.
	values []field.Element
	set    []uint64
	err    error
}

// Set assigns a value to the target (and its whole copy class). A
// conflicting assignment for the same class — e.g. a claimed public output
// that disagrees with the value the circuit computes — is recorded and
// reported by Err and by Prove; the first value wins. So is a target
// outside the circuit's N·Reps rows.
func (w *Witness) Set(t Target, v field.Element) {
	k, ok := w.circuit.classOf(t)
	if !ok {
		if w.err == nil {
			w.err = fmt.Errorf("plonk: witness target %v outside the circuit's %d rows", t, w.circuit.N*w.circuit.Reps)
		}
		return
	}
	word, bit := k/64, uint64(1)<<(k%64)
	if w.set[word]&bit != 0 {
		if old := w.values[k]; old != v && w.err == nil {
			w.err = fmt.Errorf("plonk: conflicting witness values for %v: %d vs %d",
				t, old, v)
		}
		return
	}
	w.set[word] |= bit
	w.values[k] = v
}

// Err reports the first witness assignment conflict, if any.
func (w *Witness) Err() error { return w.err }

// Clone returns an independent copy of the witness sharing the (frozen)
// circuit. Proving mutates the witness — ProveContext runs the circuit's
// generators, which write computed values into it — so a compiled
// witness that will be proven more than once, or concurrently, must be
// cloned per prove. The copy is two slices; nothing is pooled or shared.
func (w *Witness) Clone() *Witness {
	return &Witness{circuit: w.circuit, values: slices.Clone(w.values), set: slices.Clone(w.set), err: w.err}
}

// ResidentBytes is the heap the witness's class values and bitmap occupy.
func (w *Witness) ResidentBytes() int64 {
	return int64(unsafe.Sizeof(*w)) +
		int64(cap(w.values))*int64(unsafe.Sizeof(field.Zero)) +
		int64(cap(w.set))*int64(unsafe.Sizeof(uint64(0)))
}

// Get returns the target's value (zero if unset or outside the circuit).
func (w *Witness) Get(t Target) field.Element {
	k, ok := w.circuit.classOf(t)
	if !ok {
		return field.Zero
	}
	return w.values[k]
}
