package constraint

import (
	"context"
	"errors"

	"unizk/internal/field"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/trace"
)

// QuotientChunks is the number of degree-N pieces the quotient is split
// into: constraints of degree ≤ 4 leave a quotient of degree < 3N on the
// 4N coset.
const QuotientChunks = 3

// grain is the chunk size the quotient's points split into on the pool.
const grain = 1 << 9

// Coset is a program's columns evaluated on the quotient coset g·H_4N,
// in the order they are stored.
type Coset struct {
	cols [][]field.Element
	br   bool
}

// Natural holds columns stored in natural order, point j being g·ω^j
// (stark's coset extension).
func Natural(cols [][]field.Element) Coset { return Coset{cols: cols} }

// BitReversed holds columns stored in bit-reversed order, point i being
// g·ω^br(i). A column may run longer: the first 4N entries of a
// committed LDE of rate ≥ 2 are the coset in this order, which is how
// plonk reads them.
func BitReversed(cols [][]field.Element) Coset { return Coset{cols: cols, br: true} }

// Quotient evaluates t = Σ_i α^i·c_i·div_i on the coset, div_i being the
// inverse of constraint i's class's vanishing polynomial, interpolates
// it, and returns its QuotientChunks degree-N chunks. Every column holds
// the 4N coset points. The α-combination is factored by class, so each
// constraint costs one multiply-add per point and each class one more.
// The points split into pool chunks, and each chunk runs the program
// tile by tile on a pooled register file.
func (p *Program) Quotient(ctx context.Context, c Coset, challenges []field.Element,
	alpha field.Element, rec *trace.Recorder) ([][]field.Element, error) {

	d := 4 * p.n
	t := make([]field.Element, d)
	var err error
	// The kernel model counts an operation per register and a
	// multiply-add per constraint at every point.
	rec.VecOp(d, len(c.cols), len(p.code)+len(p.outs), func() {
		q := p.getQuotient()
		defer p.putQuotient(q)
		if err = q.reset(ctx, c, challenges, alpha); err != nil {
			return
		}
		err = parallel.For(ctx, d, grain, func(lo, hi int) {
			rf := p.getRegs()
			q.tiles(rf, lo, hi, t)
			p.putRegs(rf)
		})
	})
	if err != nil {
		return nil, err
	}
	rec.NTT(d, 1, true, true, c.br, func() {
		err = ntt.Transform(ctx, t, ntt.Spec{Inverse: true, Shift: field.MultiplicativeGenerator, InBR: c.br})
	})
	if err != nil {
		return nil, err
	}
	for _, v := range t[QuotientChunks*p.n:] {
		if v != 0 {
			return nil, errors.New("constraint: quotient degree exceeds bound — constraint system bug")
		}
	}
	chunks := make([][]field.Element, QuotientChunks)
	for i := range chunks {
		chunks[i] = t[i*p.n : (i+1)*p.n]
	}
	return chunks, nil
}

// quotient is what the tile loop needs beyond the program's constraint
// values: the α powers, and each class's divisor at every stored point.
// It is pooled per program, so its vectors are allocated once per N.
type quotient struct {
	p    *Program
	src  source
	pows []field.Element // α^i for constraint i
	// div[c] holds 1 over class c's vanishing polynomial, for the classes
	// the program has.
	div [numClasses][]field.Element
}

func (p *Program) getQuotient() *quotient {
	if q, ok := p.quots.Get().(*quotient); ok {
		return q
	}
	q := &quotient{p: p, pows: make([]field.Element, len(p.outs))}
	for cl, idx := range p.byClass {
		if len(idx) > 0 {
			q.div[cl] = make([]field.Element, 4*p.n)
		}
	}
	return q
}

// putQuotient pools q, dropping its reference to the caller's columns.
func (p *Program) putQuotient(q *quotient) {
	q.src.cols = nil
	p.quots.Put(q)
}

// reset fills q for a run over the coset c with the given challenges
// and α. x^N on a point of natural index j is g^N·ω_4^j, so Z_H takes
// four values on the coset and four inversions cover them.
func (q *quotient) reset(ctx context.Context, c Coset, challenges []field.Element, alpha field.Element) error {
	p := q.p
	d := 4 * p.n
	logD := ntt.Log2(d)
	shift := field.MultiplicativeGenerator
	q.src = source{cols: c.cols, br: c.br, logD: logD, rot: 4,
		challenges: append(q.src.challenges[:0], challenges...)}
	var zhInv [4]field.Element
	xn := field.Exp(shift, uint64(p.n))
	for k := range zhInv {
		zhInv[k] = field.Inverse(field.Sub(xn, field.One))
		xn = field.Mul(xn, field.PrimitiveRootOfUnity(2))
	}
	a := field.One
	for i := range q.pows {
		q.pows[i] = a
		a = field.Mul(a, alpha)
	}

	var domain []field.Element
	if c.br {
		domain = ntt.CosetDomainBR(logD)
	}
	w := field.PrimitiveRootOfUnity(logD)
	err := parallel.For(ctx, d, grain, func(lo, hi int) {
		x := field.Mul(shift, field.Exp(w, uint64(lo)))
		for j := lo; j < hi; j++ {
			zc := j & 3
			if c.br {
				x, zc = domain[j], ntt.BitReverse(j, logD)&3
			}
			for cl, div := range q.div {
				switch {
				case div == nil:
				case Class(cl) == EveryRow:
					div[j] = zhInv[zc]
				case Class(cl) == Transition:
					div[j] = field.Mul(field.Sub(x, p.gLast), zhInv[zc])
				case Class(cl) == FirstRow:
					div[j] = field.Sub(x, field.One)
				default:
					div[j] = field.Sub(x, p.gLast)
				}
			}
			x = field.Mul(x, w)
		}
	})
	if err != nil {
		return err
	}
	for _, inv := range [][]field.Element{q.div[FirstRow], q.div[LastRow]} {
		if err := field.BatchInverseCtx(ctx, inv); err != nil {
			return err
		}
	}
	return nil
}

// tiles writes t[lo:hi], one tile at a time: the program's run, then per
// class the α-combination of its constraints term by term over the tile,
// times the class's divisor.
//
//unizklint:hotpath
func (q *quotient) tiles(rf *regFile, lo, hi int, t []field.Element) {
	p := q.p
	var accBuf [tile]field.Element
	for t0 := lo; t0 < hi; t0 += tile {
		t1 := min(t0+tile, hi)
		p.run(rf, &q.src, t0, t1)
		out := t[t0:t1]
		clear(out)
		for cl, idx := range p.byClass {
			if len(idx) == 0 {
				continue
			}
			acc := accBuf[:len(out)]
			clear(acc)
			for _, i := range idx {
				field.ScaleAddVec(acc, q.pows[i], p.out(rf, i))
			}
			field.MulAddVec(out, q.div[cl][t0:t1], acc, out)
		}
	}
}
