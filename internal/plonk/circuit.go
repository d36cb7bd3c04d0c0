package plonk

import (
	"context"

	"unizk/internal/constraint"
	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
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

	// class[Row·3 + Col] is the dense copy-class index of each of the
	// 3·N·Reps slots; numClasses is their count. Padding slots are
	// singleton classes.
	class      []int32
	numClasses int
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

// SecurityBits is the circuit's soundness in bits: the least of FRI's
// term and the PIOP's, the permutation argument over its 3·N·Reps wire
// slots, α over its constraints and ζ over the degree-4 quotient (see
// fri.Config.ProofSecurityBits).
func (c *Circuit) SecurityBits() int {
	return c.cfg.ProofSecurityBits(numWires*c.N*c.Reps, c.prog.Len(), 4, c.LogN)
}

// Build compiles with one gate per row (Reps = 1).
func (b *Builder) Build(cfg fri.Config) *Circuit { return b.BuildWide(cfg, 1) }

// BuildWide compiles the circuit with reps gates per physical row: it pads
// to a power of two, resolves every copy class to a dense index (the
// table the witness reads through), freezes the copy constraints into the
// σ permutation over all 3·reps columns, and commits the constant
// polynomials (offline preprocessing, §2.2). Gates are packed column-major — gate g lands in
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
		LogN:       ntt.Log2(n),
		Reps:       reps,
		NumCols:    numCols,
		NumPublic:  len(b.pubTargets),
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

	// Resolve the union-find into dense class indices, numbered in the
	// order the classes first appear among the gate slots; padding slots
	// follow as singletons. first[k] is class k's first slot.
	gateSlots, slots := numWires*gates, numWires*n*reps
	c.class = make([]int32, slots)
	rootClass := make([]int32, gateSlots) // class index + 1, 0 if unseen
	var first []int32
	for s := range int32(gateSlots) {
		root := b.root(s)
		if rootClass[root] == 0 {
			first = append(first, s)
			rootClass[root] = int32(len(first))
		}
		c.class[s] = rootClass[root] - 1
	}
	for s := gateSlots; s < slots; s++ {
		c.class[s] = int32(len(first) + s - gateSlots)
	}
	c.numClasses = len(first) + slots - gateSlots

	// σ starts as the identity permutation over the physical slots...
	w := field.PrimitiveRootOfUnity(c.LogN)
	pow := make([]field.Element, n)
	acc := field.One
	for r := 0; r < n; r++ {
		pow[r] = acc
		acc = field.Mul(acc, w)
	}
	// Slot s is gate row s/3 and wire s%3, which lands in physical
	// column 3·rep + wire of row (s/3) mod N.
	physCol := func(s int32) int { return numWires*(int(s)/numWires/n) + int(s)%numWires }
	physRow := func(s int32) int { return int(s) / numWires % n }
	slotValue := func(s int32) field.Element {
		return field.Mul(c.ks[physCol(s)], pow[physRow(s)])
	}
	c.rowPoints = pow
	c.sigmaVals = make([][]field.Element, numCols)
	for col := 0; col < numCols; col++ {
		c.sigmaVals[col] = make([]field.Element, n)
		for r := 0; r < n; r++ {
			c.sigmaVals[col][r] = field.Mul(c.ks[col], pow[r])
		}
	}
	// ...and each copy class becomes one cycle through its slots in slot
	// order: a slot maps to the next slot of its class, the last to the
	// first. last[k] is the latest slot of class k seen so far.
	last := make([]int32, len(first))
	for s := range int32(gateSlots) {
		k := c.class[s]
		if s != first[k] {
			c.sigmaVals[physCol(last[k])][physRow(last[k])] = slotValue(s)
		}
		last[k] = s
	}
	for k, s := range last {
		c.sigmaVals[physCol(s)][physRow(s)] = slotValue(first[k])
	}

	// Commit the constants oracle (preprocessing; not proving work).
	constPolys := make([][]field.Element, 0, 8*reps)
	constPolys = append(constPolys, c.selectors...)
	constPolys = append(constPolys, c.sigmaVals...)
	var err error
	c.constants, err = fri.CommitValues(context.Background(), constPolys, cfg.RateBits, cfg.CapHeight, nil)
	parallel.Must(err)

	cs, factors := constraints(reps, c.LogN, c.ks)
	c.prog = constraint.Compile(c.LogN, cs)
	c.gateProg = constraint.Compile(c.LogN, cs[:reps])
	c.factorProg = constraint.Compile(c.LogN, factors)
	return c
}

// classOf returns t's copy-class index, and false for a target outside
// the circuit's N·Reps rows.
func (c *Circuit) classOf(t Target) (int, bool) {
	s, ok := t.slot(c.N * c.Reps)
	if !ok {
		return 0, false
	}
	return int(c.class[s]), true
}

// NewWitness returns an empty witness for the circuit. The caller sets
// public and private inputs; Prove runs the generators.
func (c *Circuit) NewWitness() *Witness {
	return &Witness{
		circuit: c,
		values:  make([]field.Element, c.numClasses),
		set:     make([]uint64, (c.numClasses+63)/64),
	}
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
