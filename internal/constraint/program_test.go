package constraint

import (
	"math/rand"
	"testing"

	"unizk/internal/field"
	"unizk/internal/ntt"
)

// evalBase evaluates the expression tree over base-field rows: the
// tree-walking oracle the compiled program is checked against.
func (e *Expr) evalBase(local, next func(col int) field.Element, chals []field.Element) field.Element {
	switch e.op {
	case opCol:
		return local(e.col)
	case opNext:
		return next(e.col)
	case opConst:
		return e.val
	case opChallenge:
		return chals[e.col]
	case opAdd:
		return field.Add(e.a.evalBase(local, next, chals), e.b.evalBase(local, next, chals))
	case opSub:
		return field.Sub(e.a.evalBase(local, next, chals), e.b.evalBase(local, next, chals))
	default:
		return field.Mul(e.a.evalBase(local, next, chals), e.b.evalBase(local, next, chals))
	}
}

// evalExt evaluates the expression tree over extension-field rows.
func (e *Expr) evalExt(local, next []field.Ext, chals []field.Element) field.Ext {
	switch e.op {
	case opCol:
		return local[e.col]
	case opNext:
		return next[e.col]
	case opConst:
		return field.FromBase(e.val)
	case opChallenge:
		return field.FromBase(chals[e.col])
	case opAdd:
		return field.ExtAdd(e.a.evalExt(local, next, chals), e.b.evalExt(local, next, chals))
	case opSub:
		return field.ExtSub(e.a.evalExt(local, next, chals), e.b.evalExt(local, next, chals))
	default:
		return field.ExtMul(e.a.evalExt(local, next, chals), e.b.evalExt(local, next, chals))
	}
}

// randConstraints builds count random constraints over width columns and
// numChal challenges as one DAG: every new node picks its operands among
// the leaves and the nodes built so far, so subtrees are shared within
// and across constraints, and duplicate leaves, constants and
// challenges appear under distinct pointers. Classes are random.
func randConstraints(rng *rand.Rand, width, numChal, count, nodes int) []Constraint {
	leaf := func() *Expr {
		switch rng.Intn(6) {
		case 0:
			return Const(field.New(uint64(rng.Intn(3))))
		case 1:
			if numChal > 0 {
				return Challenge(rng.Intn(numChal))
			}
			return Col(rng.Intn(width))
		case 2, 3:
			return Next(rng.Intn(width))
		default:
			return Col(rng.Intn(width))
		}
	}
	pool := []*Expr{leaf(), leaf()}
	pick := func() *Expr {
		if rng.Intn(3) == 0 {
			return leaf()
		}
		return pool[rng.Intn(len(pool))]
	}
	for i := 0; i < nodes; i++ {
		a, b := pick(), pick()
		var e *Expr
		switch rng.Intn(3) {
		case 0:
			e = Add(a, b)
		case 1:
			e = Sub(a, b)
		default:
			e = Mul(a, b)
		}
		pool = append(pool, e)
	}
	out := make([]Constraint, count)
	for i := range out {
		out[i] = Constraint{
			Expr:  pool[len(pool)-1-rng.Intn(min(len(pool), 2*count))],
			Class: Class(rng.Intn(int(numClasses))),
		}
	}
	return out
}

// checkProgram compares the compiled program with the expression trees.
// Over ragged tiles of a random 2^logD-point table it runs the columns
// as natural-order storage, with next-row reads rotated by rot so some
// tiles wrap around, and as bit-reversed storage, with next-row reads
// gathered. At one extension point it checks the α-combination with
// every constraint divided by its class's vanishing polynomial, for a
// trace of 2^logD rows.
func checkProgram(t *testing.T, rng *rand.Rand, cs []Constraint, width, numChal, logD, rot int) {
	t.Helper()
	p := Compile(logD, cs)
	rows := 1 << logD
	cols := make([][]field.Element, width)
	for c := range cols {
		cols[c] = make([]field.Element, rows)
		for j := range cols[c] {
			cols[c][j] = field.New(rng.Uint64())
		}
	}
	chals := make([]field.Element, numChal)
	for k := range chals {
		chals[k] = field.New(rng.Uint64())
	}
	rf := p.getRegs()
	defer p.putRegs(rf)
	for _, br := range []bool{false, true} {
		src := source{cols: cols, br: br, logD: logD, rot: rot, challenges: chals}
		nextOf := func(i int) int { return (i + rot) % rows }
		if br {
			nextOf = func(i int) int {
				return ntt.BitReverse((ntt.BitReverse(i, logD)+rot)%rows, logD)
			}
		}
		for lo := 0; lo < rows; {
			hi := min(lo+1+rng.Intn(tile), rows)
			p.run(rf, &src, lo, hi)
			for k := 0; k < hi-lo; k++ {
				i := lo + k
				local := func(c int) field.Element { return cols[c][i] }
				next := func(c int) field.Element { return cols[c][nextOf(i)] }
				for ci, con := range cs {
					if got, want := p.out(rf, ci)[k], con.Expr.evalBase(local, next, chals); got != want {
						t.Fatalf("bit-reversed %v, point %d (tile [%d,%d)) constraint %d: program %v, tree %v",
							br, i, lo, hi, ci, got, want)
					}
				}
			}
			lo = hi
		}
	}

	rndExt := func() field.Ext { return field.NewExt(rng.Uint64(), rng.Uint64()) }
	local := make([]field.Ext, width)
	next := make([]field.Ext, width)
	for c := range local {
		local[c], next[c] = rndExt(), rndExt()
	}
	alpha, zeta := field.New(rng.Uint64()), rndExt()
	gLast := field.FromBase(field.Exp(field.PrimitiveRootOfUnity(logD), uint64(rows-1)))
	zhInv := field.ExtInverse(field.ExtSub(field.ExtExp(zeta, uint64(rows)), field.ExtOne))
	div := map[Class]field.Ext{
		EveryRow:   zhInv,
		Transition: field.ExtMul(field.ExtSub(zeta, gLast), zhInv),
		FirstRow:   field.ExtInverse(field.ExtSub(zeta, field.ExtOne)),
		LastRow:    field.ExtInverse(field.ExtSub(zeta, gLast)),
	}
	want, a := field.ExtZero, field.ExtOne
	for _, con := range cs {
		term := field.ExtMul(con.Expr.evalExt(local, next, chals), div[con.Class])
		want = field.ExtAdd(want, field.ExtMul(a, term))
		a = field.ExtMul(a, field.FromBase(alpha))
	}
	if got := p.EvalExt(local, next, chals, alpha, zeta); got != want {
		t.Fatalf("ext point: program %v, trees %v", got, want)
	}
}

// TestProgramSharesSubexpressions checks the compiler's value numbering:
// equal leaves, constants and challenges under distinct pointers, and a
// subtree rebuilt from equal operands, each compile to one register. It
// also runs constraints that are a bare leaf, constant or challenge.
func TestProgramSharesSubexpressions(t *testing.T) {
	ab := Mul(Col(0), Next(1))
	every := func(es ...*Expr) []Constraint {
		cs := make([]Constraint, len(es))
		for i, e := range es {
			cs[i] = Constraint{Expr: e, Class: EveryRow}
		}
		return cs
	}
	cs := every(
		Sub(Add(ab, Const(field.Two)), Mul(Col(0), Challenge(1))),
		Add(Mul(Col(0), Next(1)), Const(field.Two)),
		Mul(Challenge(1), ab),
		ab,
	)
	p := Compile(3, cs)
	var count [opMul + 1]int
	for _, nd := range p.code {
		count[nd.op]++
	}
	if want := [...]int{1, 1, 1, 1, 1, 1, 3}; count != want {
		t.Fatalf("compiled to %v nodes by kind, want %v", count, want)
	}
	if ab := p.code[p.outs[3]]; ab.op != opMul || p.code[ab.a].op != opCol || p.code[ab.b].op != opNext {
		t.Fatalf("shared subtree not reused: constraint 3 is %+v", ab)
	}
	rng := rand.New(rand.NewSource(1))
	checkProgram(t, rng, cs, 2, 2, 8, 3)
	checkProgram(t, rng, every(Next(0), Const(field.Two), Col(1), Challenge(0)), 2, 1, 7, 99)
}

// FuzzConstraintProgram compares the program with the expression trees
// on random DAGs with challenge leaves and random classes: the seed
// drives the DAG's shape, the table, the challenges, the rotation and
// the tile boundaries.
func FuzzConstraintProgram(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed%8), uint8(seed+1), uint8(5*seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, width, count, nodes uint8) {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + int(width)%8
		numChal := rng.Intn(4)
		logD := 1 + rng.Intn(8)
		cs := randConstraints(rng, w, numChal, 1+int(count)%12, int(nodes)%64)
		checkProgram(t, rng, cs, w, numChal, logD, rng.Intn(1<<logD))
	})
}

// TestViolationRespectsClasses checks the trace check row by row: a
// constraint that fails on one row is reported there only if its class
// must vanish on that row, and a next-row read of the last row wraps to
// the first.
func TestViolationRespectsClasses(t *testing.T) {
	const logN = 3
	n := 1 << logN
	holds := map[Class]func(r int) bool{
		EveryRow:   func(int) bool { return true },
		Transition: func(r int) bool { return r < n-1 },
		FirstRow:   func(r int) bool { return r == 0 },
		LastRow:    func(r int) bool { return r == n-1 },
	}
	for class, must := range holds {
		p := Compile(logN, []Constraint{
			{Expr: Const(field.Zero), Class: EveryRow},
			{Expr: Sub(Col(0), Challenge(0)), Class: class},
		})
		for bad := 0; bad < n; bad++ {
			col := make([]field.Element, n)
			for r := range col {
				col[r] = field.New(5)
			}
			col[bad] = field.New(6)
			row, i, ok := p.Violation([][]field.Element{col}, []field.Element{field.New(5)})
			if ok == must(bad) || (!ok && (row != bad || i != 1)) {
				t.Errorf("class %d, bad row %d: got row %d constraint %d ok %v", class, bad, row, i, ok)
			}
		}
	}

	// A counter column: x' = x + 1 holds between every pair of rows but
	// the wrap from the last row to the first.
	counter := make([]field.Element, n)
	for r := range counter {
		counter[r] = field.New(uint64(r))
	}
	step := Sub(Next(0), Add(Col(0), Const(field.One)))
	for class, wantOK := range map[Class]bool{Transition: true, EveryRow: false} {
		p := Compile(logN, []Constraint{{Expr: step, Class: class}})
		row, _, ok := p.Violation([][]field.Element{counter}, nil)
		if ok != wantOK || (!ok && row != n-1) {
			t.Errorf("counter under class %d: row %d ok %v, want ok %v", class, row, ok, wantOK)
		}
	}
}
