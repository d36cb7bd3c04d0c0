package plonk

import (
	"unizk/internal/constraint"
	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
)

// minRows is the minimum padded circuit size; small circuits are padded up
// so the permutation and chunked partial products are well formed.
const minRows = 8

// Circuit is a compiled circuit. A physical row holds Reps independent
// gates side by side (3·Reps routed wire columns), the way Plonky2 rows
// hold many wires (135 in the paper's workloads); the permutation argument
// spans all columns using chained partial-product polynomials so each
// constraint stays within the degree budget — exactly the quotient-chunk
// partial products of paper §5.4.
type Circuit struct {
	// N is the padded number of physical rows (a power of two).
	N, LogN int
	// Reps is the number of gates per physical row; NumCols = 3·Reps.
	Reps, NumCols int
	// NumPublic is the number of public inputs (rep-0 slots of the first
	// rows).
	NumPublic int

	// selectors[5·rep+k] is selector k (qL,qR,qM,qO,qC) of repetition rep.
	selectors [][]field.Element
	// sigmaVals[c][r] encodes the copy-constraint permutation image of
	// slot (c, r) as k_{c'}·w^{r'}.
	sigmaVals [][]field.Element
	// ks are the coset representatives distinguishing the wire columns.
	ks []field.Element
	// rowPoints[r] is w^r, row r's point of H.
	rowPoints []field.Element

	// constants is the committed batch: 5·Reps selectors then 3·Reps
	// sigma polynomials.
	constants *fri.PolynomialBatch

	// prog is every constraint compiled once (see constraints): the
	// quotient and the verifier run it. gateProg is the gates alone, which
	// the prover's sanity check runs on the trace, and factorProg the
	// permutation argument's group products, which build Z.
	prog, gateProg, factorProg *constraint.Program

	roots      map[Target]Target
	generators []func(*Witness)
	pubTargets []Target
	cfg        fri.Config
}

// VerificationKey is the verifier's view of a compiled circuit.
type VerificationKey struct {
	ConstantsCap merkle.Cap
	LogN         int
	Reps         int
	NumPublic    int
	Cfg          fri.Config

	prog *constraint.Program
}

// Build compiles with one gate per row (Reps = 1).
func (b *Builder) Build(cfg fri.Config) *Circuit { return b.BuildWide(cfg, 1) }

// BuildWide compiles the circuit with reps gates per physical row: it pads
// to a power of two, freezes the copy constraints into the σ permutation
// over all 3·reps columns, and commits the constant polynomials (offline
// preprocessing, §2.2). Gates are packed column-major — gate g lands in
// row g mod N, repetition g div N — so the public-input gates stay in
// repetition 0 of the first rows. cfg.RateBits must be at least 2: the
// quotient is evaluated on the first 4N points of the committed LDEs.
func (b *Builder) BuildWide(cfg fri.Config, reps int) *Circuit {
	if reps < 1 {
		panic("plonk: reps must be at least 1")
	}
	if cfg.RateBits < 2 {
		panic("plonk: RateBits must be at least 2: the degree-4 quotient's 4N coset must lie inside the committed LDE")
	}
	gates := len(b.qL)
	n := minRows
	for n*reps < gates || n < len(b.pubTargets) {
		n <<= 1
	}
	numCols := 3 * reps

	c := &Circuit{
		N:          n,
		LogN:       log2(n),
		Reps:       reps,
		NumCols:    numCols,
		NumPublic:  len(b.pubTargets),
		roots:      make(map[Target]Target),
		generators: b.generators,
		pubTargets: b.pubTargets,
		cfg:        cfg,
	}

	// Coset representatives: powers of the group generator are pairwise
	// in distinct cosets of every power-of-two subgroup.
	c.ks = make([]field.Element, numCols)
	c.ks[0] = field.One
	for i := 1; i < numCols; i++ {
		c.ks[i] = field.Mul(c.ks[i-1], field.MultiplicativeGenerator)
	}

	// Selector layout: selectors[5·rep+k][row].
	c.selectors = make([][]field.Element, 5*reps)
	for i := range c.selectors {
		c.selectors[i] = make([]field.Element, n)
	}
	src := [5][]field.Element{b.qL, b.qR, b.qM, b.qO, b.qC}
	for g := 0; g < gates; g++ {
		row, rep := g%n, g/n
		for k := 0; k < 5; k++ {
			c.selectors[5*rep+k][row] = src[k][g]
		}
	}

	// Freeze the union-find and collect the copy classes in deterministic
	// order.
	classes := make(map[Target][]Target)
	var order []Target
	for g := 0; g < gates; g++ {
		for col := 0; col < 3; col++ {
			t := Target{Row: g, Col: col}
			root := b.find(t)
			c.roots[t] = root
			if len(classes[root]) == 0 {
				order = append(order, root)
			}
			classes[root] = append(classes[root], t)
		}
	}

	// σ starts as the identity permutation over the physical slots...
	w := field.PrimitiveRootOfUnity(c.LogN)
	pow := make([]field.Element, n)
	acc := field.One
	for r := 0; r < n; r++ {
		pow[r] = acc
		acc = field.Mul(acc, w)
	}
	physCol := func(t Target) int { return 3*(t.Row/n) + t.Col }
	physRow := func(t Target) int { return t.Row % n }
	slotValue := func(t Target) field.Element {
		return field.Mul(c.ks[physCol(t)], pow[physRow(t)])
	}
	c.rowPoints = pow
	c.sigmaVals = make([][]field.Element, numCols)
	for col := 0; col < numCols; col++ {
		c.sigmaVals[col] = make([]field.Element, n)
		for r := 0; r < n; r++ {
			c.sigmaVals[col][r] = field.Mul(c.ks[col], pow[r])
		}
	}
	// ...and each copy class becomes one cycle.
	for _, root := range order {
		members := classes[root]
		for i, t := range members {
			next := members[(i+1)%len(members)]
			c.sigmaVals[physCol(t)][physRow(t)] = slotValue(next)
		}
	}

	// Commit the constants oracle (preprocessing; not proving work).
	constPolys := make([][]field.Element, 0, 8*reps)
	constPolys = append(constPolys, c.selectors...)
	constPolys = append(constPolys, c.sigmaVals...)
	c.constants = fri.CommitValues(constPolys, cfg.RateBits, cfg.CapHeight, nil)

	cs, factors := constraints(reps, c.LogN, c.ks)
	c.prog = constraint.Compile(c.LogN, cs)
	c.gateProg = constraint.Compile(c.LogN, cs[:reps])
	c.factorProg = constraint.Compile(c.LogN, factors)
	return c
}

// find returns the frozen copy-class representative of t.
func (c *Circuit) find(t Target) Target {
	if root, ok := c.roots[t]; ok {
		return root
	}
	return t
}

// wireValue reads the physical wire column col at row r from the witness.
func (c *Circuit) wireValue(w *Witness, col, row int) field.Element {
	rep := col / 3
	return w.Get(Target{Row: rep*c.N + row, Col: col % 3})
}

// NewWitness returns an empty witness for the circuit. The caller sets
// public and private inputs; Prove runs the generators.
func (c *Circuit) NewWitness() *Witness {
	return &Witness{circuit: c, values: make(map[Target]field.Element)}
}

// VerificationKey returns the verifier's data.
func (c *Circuit) VerificationKey() VerificationKey {
	return VerificationKey{
		ConstantsCap: c.constants.Cap(),
		LogN:         c.LogN,
		Reps:         c.Reps,
		NumPublic:    c.NumPublic,
		Cfg:          c.cfg,
		prog:         c.prog,
	}
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}
