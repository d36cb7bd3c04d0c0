package stark

import (
	"context"
	"math/rand"
	"testing"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/ntt"
)

// EvalBase evaluates the expression tree given base-field row views: the
// tree-walking oracle the compiled program is checked against.
func (e *Expr) EvalBase(local, next func(col int) field.Element) field.Element {
	switch e.op {
	case opCol:
		return local(e.col)
	case opNext:
		return next(e.col)
	case opConst:
		return e.val
	case opAdd:
		return field.Add(e.a.EvalBase(local, next), e.b.EvalBase(local, next))
	case opSub:
		return field.Sub(e.a.EvalBase(local, next), e.b.EvalBase(local, next))
	case opMul:
		return field.Mul(e.a.EvalBase(local, next), e.b.EvalBase(local, next))
	default:
		panic("stark: unknown expression op")
	}
}

// EvalExt evaluates the expression tree over extension-field rows.
func (e *Expr) EvalExt(local, next []field.Ext) field.Ext {
	switch e.op {
	case opCol:
		return local[e.col]
	case opNext:
		return next[e.col]
	case opConst:
		return field.FromBase(e.val)
	case opAdd:
		return field.ExtAdd(e.a.EvalExt(local, next), e.b.EvalExt(local, next))
	case opSub:
		return field.ExtSub(e.a.EvalExt(local, next), e.b.EvalExt(local, next))
	case opMul:
		return field.ExtMul(e.a.EvalExt(local, next), e.b.EvalExt(local, next))
	default:
		panic("stark: unknown expression op")
	}
}

// refQuotient is the reference for computeQuotient: the per-point loop
// over the expression trees, with a fresh α walk, three multiplies per
// term and batch-inverted Z_H at every point.
func (s *Stark) refQuotient(ctx context.Context, traceBatch *fri.PolynomialBatch,
	alpha field.Element) ([][]field.Element, error) {

	n := s.N
	d := 4 * n
	logD := s.LogN + 2
	shift := field.MultiplicativeGenerator

	cols := make([][]field.Element, s.Width)
	for i := range cols {
		cols[i] = make([]field.Element, d)
	}
	if err := ntt.Columns(ctx, cols, traceBatch.Coeffs[:s.Width], ntt.Spec{Shift: shift}); err != nil {
		return nil, err
	}
	w := field.PrimitiveRootOfUnity(logD)
	rot := d / n
	gLast := field.Exp(field.PrimitiveRootOfUnity(s.LogN), uint64(n-1))
	xs := make([]field.Element, d)
	x := shift
	for j := range xs {
		xs[j] = x
		x = field.Mul(x, w)
	}
	zhInv := make([]field.Element, d)
	firstInv := make([]field.Element, d)
	lastInv := make([]field.Element, d)
	for j := range xs {
		zhInv[j] = field.Sub(field.Exp(xs[j], uint64(n)), field.One)
		firstInv[j] = field.Sub(xs[j], field.One)
		lastInv[j] = field.Sub(xs[j], gLast)
	}
	field.BatchInverse(zhInv)
	field.BatchInverse(firstInv)
	field.BatchInverse(lastInv)

	t := make([]field.Element, d)
	for j := range t {
		localFn := func(c int) field.Element { return cols[c][j] }
		nextFn := func(c int) field.Element { return cols[c][(j+rot)%d] }
		a := field.One
		var sum field.Element
		transDiv := field.Mul(field.Sub(xs[j], gLast), zhInv[j])
		for _, tr := range s.Transitions {
			v := tr.EvalBase(localFn, nextFn)
			sum = field.Add(sum, field.Mul(a, field.Mul(v, transDiv)))
			a = field.Mul(a, alpha)
		}
		for _, b := range s.FirstRow {
			v := field.Sub(cols[b.Col][j], b.Value)
			sum = field.Add(sum, field.Mul(a, field.Mul(v, firstInv[j])))
			a = field.Mul(a, alpha)
		}
		for _, b := range s.LastRow {
			v := field.Sub(cols[b.Col][j], b.Value)
			sum = field.Add(sum, field.Mul(a, field.Mul(v, lastInv[j])))
			a = field.Mul(a, alpha)
		}
		t[j] = sum
	}
	if err := ntt.Transform(ctx, t, ntt.Spec{Inverse: true, Shift: shift}); err != nil {
		return nil, err
	}
	chunks := make([][]field.Element, quotientChunks)
	for i := range chunks {
		chunks[i] = t[i*n : (i+1)*n]
	}
	return chunks, nil
}

// QuotientAndReference commits columns and returns computeQuotient's and
// refQuotient's chunks for the same α, for the cross-package test over
// the workload AIRs.
func (s *Stark) QuotientAndReference(columns [][]field.Element, alpha field.Element) (got, want [][]field.Element, err error) {
	ctx := context.Background()
	traceBatch, err := fri.CommitValuesContext(ctx, columns, s.cfg.RateBits, s.cfg.CapHeight, nil)
	if err != nil {
		return nil, nil, err
	}
	if got, err = s.computeQuotient(ctx, traceBatch, alpha, nil); err != nil {
		return nil, nil, err
	}
	want, err = s.refQuotient(ctx, traceBatch, alpha)
	return got, want, err
}

// randExprs builds count random expressions over width columns as one
// DAG: every new node picks its operands among the leaves and the nodes
// built so far, so subtrees are shared within and across expressions,
// and duplicate leaves and constants appear under distinct pointers.
func randExprs(rng *rand.Rand, width, count, nodes int) []*Expr {
	leaf := func() *Expr {
		switch rng.Intn(5) {
		case 0:
			return Const(field.New(uint64(rng.Intn(3))))
		case 1, 2:
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
	out := make([]*Expr, count)
	for i := range out {
		out[i] = pool[len(pool)-1-rng.Intn(min(len(pool), 2*count))]
	}
	return out
}

// checkProgram compares the compiled program with the expression trees:
// in the base field over ragged tiles of a random trace, with next-row
// reads rotated by rot so some tiles wrap around, and at one extension
// point.
func checkProgram(t *testing.T, rng *rand.Rand, exprs []*Expr, width, rows, rot int) {
	t.Helper()
	p := compile(exprs)
	cols := make([][]field.Element, width)
	for c := range cols {
		cols[c] = make([]field.Element, rows)
		for j := range cols[c] {
			cols[c][j] = field.New(rng.Uint64())
		}
	}
	rf := p.getRegs()
	defer p.putRegs(rf)
	for lo := 0; lo < rows; {
		hi := min(lo+1+rng.Intn(tile), rows)
		p.run(rf, cols, rot, lo, hi)
		for k := 0; k < hi-lo; k++ {
			j := lo + k
			local := func(c int) field.Element { return cols[c][j] }
			next := func(c int) field.Element { return cols[c][(j+rot)%rows] }
			for i, e := range exprs {
				if got, want := p.out(rf, i)[k], e.EvalBase(local, next); got != want {
					t.Fatalf("point %d (tile [%d,%d)) expr %d: program %v, tree %v", j, lo, hi, i, got, want)
				}
			}
		}
		lo = hi
	}

	local := make([]field.Ext, width)
	next := make([]field.Ext, width)
	for c := range local {
		local[c] = field.NewExt(rng.Uint64(), rng.Uint64())
		next[c] = field.NewExt(rng.Uint64(), rng.Uint64())
	}
	for i, got := range p.evalExt(local, next) {
		if want := exprs[i].EvalExt(local, next); got != want {
			t.Fatalf("ext point expr %d: program %v, tree %v", i, got, want)
		}
	}
}

// TestProgramSharesSubexpressions checks the compiler's value numbering:
// equal leaves under distinct pointers, a repeated constant, and a
// subtree rebuilt from equal operands each compile to one register. It
// also runs transitions that are a bare leaf or constant.
func TestProgramSharesSubexpressions(t *testing.T) {
	ab := Mul(Col(0), Next(1))
	exprs := []*Expr{
		Sub(Add(ab, Const(field.Two)), Col(0)),
		Add(Mul(Col(0), Next(1)), Const(field.Two)),
		ab,
	}
	p := compile(exprs)
	if len(p.loads) != 2 || len(p.consts) != 1 || len(p.code) != 3 {
		t.Fatalf("compiled to %d loads, %d consts, %d ops; want 2, 1, 3",
			len(p.loads), len(p.consts), len(p.code))
	}
	if p.outs[2] != p.code[0].dst {
		t.Fatalf("shared subtree not reused: out %d, first op writes %d", p.outs[2], p.code[0].dst)
	}
	rng := rand.New(rand.NewSource(1))
	checkProgram(t, rng, exprs, 2, 200, 3)
	checkProgram(t, rng, []*Expr{Next(0), Const(field.Two), Col(1)}, 2, 100, 99)
}

// FuzzConstraintProgram compares the program with the expression trees
// on random DAGs: the seed drives the DAG's shape, the trace, the
// rotation and the tile boundaries.
func FuzzConstraintProgram(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed%8), uint8(seed+1), uint8(5*seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, width, count, nodes uint8) {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + int(width)%8
		rows := 1 << (1 + rng.Intn(8))
		exprs := randExprs(rng, w, 1+int(count)%12, int(nodes)%64)
		checkProgram(t, rng, exprs, w, rows, rng.Intn(rows))
	})
}

// TestQuotientTileLoopAllocs pins the quotient's tile loop — the program
// run and the α-combination over one chunk of tiles, with a checked-out
// register file — at zero allocations. The chunk ends at the coset's
// end, so its last tiles wrap their next-row reads, and its length is
// not a multiple of the tile.
func TestQuotientTileLoopAllocs(t *testing.T) {
	s, _, _ := fibAIR(8)
	d := 4 * s.N
	rng := rand.New(rand.NewSource(3))
	cols := make([][]field.Element, s.Width)
	for c := range cols {
		cols[c] = make([]field.Element, d)
		for j := range cols[c] {
			cols[c][j] = field.New(rng.Uint64())
		}
	}
	q, err := s.newQuotientTerms(context.Background(), cols, field.New(7))
	if err != nil {
		t.Fatal(err)
	}
	rf := s.prog.getRegs()
	defer s.prog.putRegs(rf)
	out := make([]field.Element, d)
	lo := d - quotGrain - tile/2
	if avg := testing.AllocsPerRun(100, func() { q.tiles(rf, lo, d, out[lo:]) }); avg != 0 {
		t.Fatalf("quotient tile loop: %.1f allocs/run, want 0", avg)
	}
}
