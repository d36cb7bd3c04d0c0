package constraint

import (
	"context"
	"sync"
	"unsafe"

	"unizk/internal/field"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
)

// tile is the number of points one program dispatch covers: each
// instruction runs as one loop over a tile, so the per-instruction
// dispatch is paid once per 64 points instead of once per point.
const tile = 64

// Program is a constraint set compiled once into straight-line register
// code — the "compiler frontend → kernel stream" of paper §5.5 — for a
// trace of N rows. Every register holds one value per point of a tile.
// Nodes are value-numbered: a leaf by (kind, column, value), an
// operation by (op, operands), so a subexpression common to several
// constraints is evaluated once.
type Program struct {
	n     int
	gLast field.Element // g^{N−1}, the last row's point
	// code defines register i as code[i], operands first.
	code []node
	// outs[i] is the register holding constraint i's value, and
	// classes[i] its class; byClass lists the constraints of each class.
	outs    []int
	classes []Class
	byClass [numClasses][]int
	// regs pools one register file per chunk of points, and quots the
	// quotient's per-run state.
	regs, quots sync.Pool
}

// node defines one register: column col on the current or the next row,
// constant val, challenge col, or register a op register b.
type node struct {
	op   opKind
	col  int
	val  field.Element
	a, b int
}

// Compile lowers the constraints, in α order, into one program for a
// trace of 2^logN rows.
func Compile(logN int, cs []Constraint) *Program {
	p := &Program{
		n:     1 << logN,
		gLast: field.Exp(field.PrimitiveRootOfUnity(logN), uint64(1<<logN-1)),
	}
	seen := map[*Expr]int{}
	index := map[node]int{}
	var reg func(e *Expr) int
	reg = func(e *Expr) int {
		if r, ok := seen[e]; ok {
			return r
		}
		k := node{op: e.op, col: e.col, val: e.val}
		if e.a != nil {
			k.a, k.b = reg(e.a), reg(e.b)
		}
		r, ok := index[k]
		if !ok {
			r = len(p.code)
			index[k] = r
			p.code = append(p.code, k)
		}
		seen[e] = r
		return r
	}
	for i, con := range cs {
		p.outs = append(p.outs, reg(con.Expr))
		p.classes = append(p.classes, con.Class)
		p.byClass[con.Class] = append(p.byClass[con.Class], i)
	}
	p.regs.New = func() any { return p.newRegFile() }
	return p
}

// regFile is one chunk's registers: r[i] is register i's values on the
// current tile, a view into a column for a load that can be read in
// place, otherwise the register's own row of buf.
type regFile struct {
	buf []field.Element
	r   [][]field.Element
}

// Len is the number of constraints: how many terms α combines.
func (p *Program) Len() int { return len(p.outs) }

// ResidentBytes is the heap the compiled program keeps alive: its code
// and constraint tables. The pooled register files are not counted:
// the pools drop them under GC pressure.
func (p *Program) ResidentBytes() int64 {
	n := int64(unsafe.Sizeof(*p)) +
		int64(cap(p.code))*int64(unsafe.Sizeof(node{})) +
		int64(cap(p.outs))*int64(unsafe.Sizeof(0)) +
		int64(cap(p.classes))*int64(unsafe.Sizeof(Class(0)))
	for _, b := range p.byClass {
		n += int64(cap(b)) * int64(unsafe.Sizeof(0))
	}
	return n
}

func (p *Program) newRegFile() *regFile {
	rf := &regFile{
		buf: make([]field.Element, len(p.code)*tile),
		r:   make([][]field.Element, len(p.code)),
	}
	for i, nd := range p.code {
		if nd.op == opConst {
			row := rf.row(i, tile)
			for k := range row {
				row[k] = nd.val
			}
		}
	}
	return rf
}

// row returns the first n entries of register reg's own storage.
//
//unizklint:hotpath
func (rf *regFile) row(reg, n int) []field.Element {
	return rf.buf[reg*tile : reg*tile+n]
}

func (p *Program) getRegs() *regFile   { return p.regs.Get().(*regFile) }
func (p *Program) putRegs(rf *regFile) { p.regs.Put(rf) }

// source is what a run reads: columns stored in natural order, or
// bit-reversed over 2^logD points, with a next-row leaf rot natural
// points ahead, and the run's challenges.
type source struct {
	cols       [][]field.Element
	br         bool
	logD       int
	rot        int
	challenges []field.Element
}

// run evaluates the program on stored points [lo, hi) of src, hi − lo ≤
// tile. A current-row leaf reads its column in place. A next-row leaf of
// natural-order columns is the column rotated by rot, read in place
// unless the tile wraps around; of bit-reversed columns it is gathered
// point by point into the register's own row. Afterwards out(rf, i)
// holds constraint i's values on the tile.
//
//unizklint:hotpath
func (p *Program) run(rf *regFile, src *source, lo, hi int) {
	n := hi - lo
	for i, nd := range p.code {
		switch nd.op {
		case opCol:
			rf.r[i] = src.cols[nd.col][lo:hi]
		case opNext:
			col := src.cols[nd.col]
			if src.br {
				own := rf.row(i, n)
				mask := 1<<src.logD - 1
				for k := range own {
					j := (ntt.BitReverse(lo+k, src.logD) + src.rot) & mask
					own[k] = col[ntt.BitReverse(j, src.logD)]
				}
				rf.r[i] = own
				continue
			}
			s := (lo + src.rot) % len(col)
			if s+n <= len(col) {
				rf.r[i] = col[s : s+n]
				continue
			}
			own := rf.row(i, n)
			k := copy(own, col[s:])
			copy(own[k:], col)
			rf.r[i] = own
		case opConst:
			rf.r[i] = rf.row(i, n)
		case opChallenge:
			row := rf.row(i, n)
			v := src.challenges[nd.col]
			for k := range row {
				row[k] = v
			}
			rf.r[i] = row
		default:
			dst := rf.row(i, n)
			a, b := rf.r[nd.a], rf.r[nd.b]
			switch nd.op {
			case opAdd:
				field.AddVec(dst, a, b)
			case opSub:
				field.SubVec(dst, a, b)
			default:
				field.MulVec(dst, a, b)
			}
			rf.r[i] = dst
		}
	}
}

// out returns constraint i's values on the tile run last evaluated.
//
//unizklint:hotpath
func (p *Program) out(rf *regFile, i int) []field.Element { return rf.r[p.outs[i]] }

// Violation runs the program over a trace — cols in natural order, N
// rows, the next row of the last being the first — and returns the first
// row, and the first constraint on it, that does not vanish where its
// class says it must; ok is true if none does. Columns no constraint
// reads may be nil.
func (p *Program) Violation(cols [][]field.Element, challenges []field.Element) (row, i int, ok bool) {
	rf := p.getRegs()
	defer p.putRegs(rf)
	src := source{cols: cols, rot: 1, challenges: challenges}
	for lo := 0; lo < p.n; lo += tile {
		hi := min(lo+tile, p.n)
		p.run(rf, &src, lo, hi)
		for k := 0; k < hi-lo; k++ {
			r := lo + k
			for i, c := range p.classes {
				holds := c == EveryRow || c == Transition && r < p.n-1 || c == FirstRow && r == 0 || c == LastRow && r == p.n-1
				if holds && p.out(rf, i)[k] != 0 {
					return r, i, false
				}
			}
		}
	}
	return 0, 0, true
}

// Eval writes constraint i's value on every trace row into dst[i], for
// the first len(dst) constraints: cols are read as Violation reads them.
func (p *Program) Eval(ctx context.Context, cols [][]field.Element, challenges []field.Element,
	dst [][]field.Element) error {

	src := source{cols: cols, rot: 1, challenges: challenges}
	return parallel.For(ctx, p.n, grain, func(lo, hi int) {
		rf := p.getRegs()
		for t0 := lo; t0 < hi; t0 += tile {
			t1 := min(t0+tile, hi)
			p.run(rf, &src, t0, t1)
			for i, d := range dst {
				copy(d[t0:t1], p.out(rf, i))
			}
		}
		p.putRegs(rf)
	})
}

// EvalExt runs the program at one extension point ζ, the verifier's
// view: local and next are the columns' openings at ζ and g·ζ. It
// returns Σ_i α^i·c_i(ζ)·div_i(ζ), div_i being the inverse of constraint
// i's class's vanishing polynomial, which is what the quotient's chunks
// must recombine to at ζ. The caller checks Z_H(ζ) ≠ 0, which covers
// every divisor.
func (p *Program) EvalExt(local, next []field.Ext, challenges []field.Element,
	alpha field.Element, zeta field.Ext) field.Ext {

	r := make([]field.Ext, len(p.code))
	for i, nd := range p.code {
		switch nd.op {
		case opCol:
			r[i] = local[nd.col]
		case opNext:
			r[i] = next[nd.col]
		case opConst:
			r[i] = field.FromBase(nd.val)
		case opChallenge:
			r[i] = field.FromBase(challenges[nd.col])
		case opAdd:
			r[i] = field.ExtAdd(r[nd.a], r[nd.b])
		case opSub:
			r[i] = field.ExtSub(r[nd.a], r[nd.b])
		default:
			r[i] = field.ExtMul(r[nd.a], r[nd.b])
		}
	}
	zhInv := field.ExtInverse(field.ExtSub(field.ExtExp(zeta, uint64(p.n)), field.ExtOne))
	last := field.ExtSub(zeta, field.FromBase(p.gLast))
	div := [numClasses]field.Ext{
		EveryRow:   zhInv,
		Transition: field.ExtMul(last, zhInv),
		FirstRow:   field.ExtInverse(field.ExtSub(zeta, field.ExtOne)),
		LastRow:    field.ExtInverse(last),
	}
	sum, a := field.ExtZero, field.One
	for i, reg := range p.outs {
		sum = field.ExtAdd(sum, field.ExtScalarMul(a, field.ExtMul(r[reg], div[p.classes[i]])))
		a = field.Mul(a, alpha)
	}
	return sum
}

// QuotientAt recombines the quotient's degree-N chunk openings at ζ:
// t(ζ) = Σ_k t_k(ζ)·ζ^{kN}.
func (p *Program) QuotientAt(chunks []field.Ext, zeta field.Ext) field.Ext {
	zetaN := field.ExtExp(zeta, uint64(p.n))
	t, pow := field.ExtZero, field.ExtOne
	for _, c := range chunks {
		t = field.ExtAdd(t, field.ExtMul(pow, c))
		pow = field.ExtMul(pow, zetaN)
	}
	return t
}
