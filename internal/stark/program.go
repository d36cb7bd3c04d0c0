package stark

import (
	"sync"

	"unizk/internal/field"
)

// tile is the number of points one program dispatch covers: each
// instruction runs as one loop over a tile, so the per-instruction
// dispatch is paid once per 64 points instead of once per point.
const tile = 64

// program is a constraint set compiled once into straight-line register
// code — the "compiler frontend → kernel stream" of paper §5.5. Every
// register holds one value per point of a tile. Leaves are shared by
// (row, column), constants by value, and operations by (op, operands), so
// a subexpression common to several constraints is evaluated once.
type program struct {
	numRegs int
	loads   []load
	consts  []constant
	code    []instr
	// outs[i] is the register holding constraint i's value.
	outs []int
	// regs pools one register file per chunk of points.
	regs sync.Pool
}

// load fills register reg with a trace column on the current or the
// next row.
type load struct {
	reg, col int
	next     bool
}

type constant struct {
	reg int
	val field.Element
}

// instr sets register dst to a op b.
type instr struct {
	op        opKind
	dst, a, b int
}

// compile lowers the constraints into one program.
func compile(exprs []*Expr) *program {
	p := &program{}
	c := compiler{
		p:      p,
		seen:   map[*Expr]int{},
		leaves: map[load]int{},
		vals:   map[field.Element]int{},
		ops:    map[instr]int{},
	}
	for _, e := range exprs {
		p.outs = append(p.outs, c.reg(e))
	}
	p.regs.New = func() any { return p.newRegFile() }
	return p
}

// compiler holds the value-numbering tables of one compile.
type compiler struct {
	p      *program
	seen   map[*Expr]int
	leaves map[load]int
	vals   map[field.Element]int
	ops    map[instr]int // keyed with dst zero
}

// reg returns the register holding e's value, emitting the code for it
// on first sight.
func (c *compiler) reg(e *Expr) int {
	if r, ok := c.seen[e]; ok {
		return r
	}
	var r int
	switch e.op {
	case opCol, opNext:
		key := load{col: e.col, next: e.op == opNext}
		var ok bool
		if r, ok = c.leaves[key]; !ok {
			r = c.alloc()
			c.leaves[key] = r
			key.reg = r
			c.p.loads = append(c.p.loads, key)
		}
	case opConst:
		var ok bool
		if r, ok = c.vals[e.val]; !ok {
			r = c.alloc()
			c.vals[e.val] = r
			c.p.consts = append(c.p.consts, constant{reg: r, val: e.val})
		}
	case opAdd, opSub, opMul:
		key := instr{op: e.op, a: c.reg(e.a), b: c.reg(e.b)}
		var ok bool
		if r, ok = c.ops[key]; !ok {
			r = c.alloc()
			c.ops[key] = r
			key.dst = r
			c.p.code = append(c.p.code, key)
		}
	default:
		panic("stark: unknown expression op")
	}
	c.seen[e] = r
	return r
}

func (c *compiler) alloc() int {
	c.p.numRegs++
	return c.p.numRegs - 1
}

// regFile is one chunk's registers: r[i] is register i's values on the
// current tile, a view into a trace column for a load that does not wrap
// around, otherwise the register's own row of buf.
type regFile struct {
	buf []field.Element
	r   [][]field.Element
	// acc holds the quotient's three α-combinations on the tile.
	acc [3][tile]field.Element
}

func (p *program) newRegFile() *regFile {
	rf := &regFile{
		buf: make([]field.Element, p.numRegs*tile),
		r:   make([][]field.Element, p.numRegs),
	}
	for _, c := range p.consts {
		row := rf.row(c.reg, tile)
		for k := range row {
			row[k] = c.val
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

func (p *program) getRegs() *regFile   { return p.regs.Get().(*regFile) }
func (p *program) putRegs(rf *regFile) { p.regs.Put(rf) }

// run evaluates the program on points [lo, hi) of the columns, hi − lo ≤
// tile: a current-row leaf reads cols[c][j], a next-row leaf
// cols[c][(j+rot) mod len]. Afterwards out(rf, i) holds constraint i's
// values on the tile.
//
//unizklint:hotpath
func (p *program) run(rf *regFile, cols [][]field.Element, rot, lo, hi int) {
	n := hi - lo
	for _, l := range p.loads {
		col := cols[l.col]
		if !l.next {
			rf.r[l.reg] = col[lo:hi]
			continue
		}
		s := (lo + rot) % len(col)
		if s+n <= len(col) {
			rf.r[l.reg] = col[s : s+n]
			continue
		}
		own := rf.row(l.reg, n)
		k := copy(own, col[s:])
		copy(own[k:], col)
		rf.r[l.reg] = own
	}
	for _, c := range p.consts {
		rf.r[c.reg] = rf.row(c.reg, n)
	}
	for _, in := range p.code {
		dst := rf.row(in.dst, n)
		a, b := rf.r[in.a][:n], rf.r[in.b][:n]
		switch in.op {
		case opAdd:
			for k := range dst {
				dst[k] = field.Add(a[k], b[k])
			}
		case opSub:
			for k := range dst {
				dst[k] = field.Sub(a[k], b[k])
			}
		default:
			for k := range dst {
				dst[k] = field.Mul(a[k], b[k])
			}
		}
		rf.r[in.dst] = dst
	}
}

// out returns constraint i's values on the tile run last evaluated.
//
//unizklint:hotpath
func (p *program) out(rf *regFile, i int) []field.Element { return rf.r[p.outs[i]] }

// evalExt runs the program at one extension point, the verifier's view:
// local and next are the trace openings at ζ and g·ζ. It returns the
// constraints' values in order.
func (p *program) evalExt(local, next []field.Ext) []field.Ext {
	r := make([]field.Ext, p.numRegs)
	for _, l := range p.loads {
		if l.next {
			r[l.reg] = next[l.col]
		} else {
			r[l.reg] = local[l.col]
		}
	}
	for _, c := range p.consts {
		r[c.reg] = field.FromBase(c.val)
	}
	for _, in := range p.code {
		switch in.op {
		case opAdd:
			r[in.dst] = field.ExtAdd(r[in.a], r[in.b])
		case opSub:
			r[in.dst] = field.ExtSub(r[in.a], r[in.b])
		default:
			r[in.dst] = field.ExtMul(r[in.a], r[in.b])
		}
	}
	out := make([]field.Ext, len(p.outs))
	for i, reg := range p.outs {
		out[i] = r[reg]
	}
	return out
}
