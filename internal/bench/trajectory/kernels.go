package trajectory

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/jobs"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/poseidon"
	"unizk/internal/workloads"
)

// Kernel is one tracked benchmark: a stable name (the trajectory's join
// key — renaming orphans the kernel's history) and a standard
// testing.B body.
type Kernel struct {
	Name  string
	Bench func(b *testing.B)
}

// mulBatch is the number of field multiplications per op in the field
// kernels: single ops are below timer resolution, so the tracked unit is
// a dependent chain of this length.
const mulBatch = 4096

// nttSizes spans the proving range: 2^12 (small traces) through 2^18
// (the LDE domains of production-size circuits).
var nttSizes = []int{12, 15, 18}

// Kernels returns the tracked kernel registry in recording order. The
// set mirrors the paper's kernel classes: field arithmetic, the NTT
// variants, Merkle commitment, FRI folding, and the provers' quotient,
// witness and verify phases (whole proofs are benchmark/'s to time).
func Kernels() []Kernel {
	ks := []Kernel{
		{Name: "field/mul/4096", Bench: benchFieldMul},
		{Name: "field/inverse", Bench: benchFieldInverse},
		{Name: "field/mul-vec/4096", Bench: benchFieldMulVec},
	}
	// The row names keep the order-naming of the variants they track
	// (first letter input order, second output order; N natural, R
	// bit-reversed) so their history stays joined.
	nttRows := []struct {
		prefix string
		spec   ntt.Spec
	}{
		{"ntt/forwardNN", ntt.Spec{}},
		{"ntt/inverseNN", ntt.Spec{Inverse: true}},
		{"ntt/cosetForwardNR", ntt.Spec{Shift: field.MultiplicativeGenerator, OutBR: true}},
	}
	for _, logN := range nttSizes {
		for _, row := range nttRows {
			ks = append(ks, Kernel{Name: sizeName(row.prefix, logN), Bench: func(b *testing.B) { benchNTT(b, logN, row.spec) }})
		}
	}
	ks = append(ks,
		Kernel{Name: "ntt/lde/2^11x48-rate3", Bench: benchLDEColumns},
		Kernel{Name: "fri/commit/2^11x48-rate3", Bench: benchFRICommit},
		Kernel{Name: "poseidon/permute", Bench: benchPermute},
		Kernel{Name: "poseidon/permute-x8", Bench: benchPermuteX8},
		Kernel{Name: "poseidon/hash-no-pad/32", Bench: benchHashNoPad},
		Kernel{Name: "merkle/two-to-one", Bench: benchTwoToOne},
		Kernel{Name: "fri/grind/16-bit", Bench: benchGrind},
		Kernel{Name: "merkle/commit/2^12", Bench: func(b *testing.B) { benchMerkleCommit(b, 4) }},
		Kernel{Name: "merkle/commit/2^12x32", Bench: func(b *testing.B) { benchMerkleCommit(b, 32) }},
		Kernel{Name: "merkle/verify/2^14x135", Bench: func(b *testing.B) { benchMerkleVerify(b, false) }},
		Kernel{Name: "merkle/verify-batch/2^14x135", Bench: func(b *testing.B) { benchMerkleVerify(b, true) }},
		Kernel{Name: "fri/fold/2^15", Bench: benchFRIFold},
		Kernel{Name: "fri/combine/2^14", Bench: benchFRICombine},
		Kernel{Name: "fri/eval-all/mvm-2^11", Bench: benchFRIEvalAll},
		Kernel{Name: "plonk/quotient/mvm-2^11", Bench: benchPlonkQuotient},
		Kernel{Name: "witness/mvm-2^11", Bench: benchPlonkWitness},
		Kernel{Name: "stark/quotient/sha-2^12", Bench: benchStarkQuotient},
		Kernel{Name: "plonk/verify/mvm-2^11", Bench: func(b *testing.B) { benchVerify(b, plonkVerifyCase) }},
		Kernel{Name: "stark/verify/sha-2^12", Bench: func(b *testing.B) { benchVerify(b, starkVerifyCase) }},
	)
	return ks
}

func sizeName(prefix string, logN int) string {
	return fmt.Sprintf("%s/2^%d", prefix, logN)
}

func benchFieldMul(b *testing.B) {
	x := field.New(0x1234_5678_9abc_def0)
	y := field.New(0x0fed_cba9_8765_4321)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := x
		for j := 0; j < mulBatch; j++ {
			acc = field.MulAdd(acc, y, x) // dependent chain: no ILP flattery
		}
		sinkElement = acc
	}
}

// benchFieldMulVec multiplies two mulBatch-element vectors element-wise
// through the slice layer: independent products, the throughput
// counterpart of field/mul's dependent chain.
func benchFieldMulVec(b *testing.B) {
	x, y, out := make([]field.Element, mulBatch), make([]field.Element, mulBatch), make([]field.Element, mulBatch)
	for i := range x {
		x[i] = field.New(uint64(i) * 0x9e37_79b9_7f4a_7c15)
		y[i] = field.New(uint64(i)*0x0fed_cba9_8765_4321 + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		field.MulVec(out, x, y)
	}
	sinkElement = out[0]
}

func benchFieldInverse(b *testing.B) {
	x := field.New(0xdead_beef_cafe_f00d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = field.Inverse(x)
	}
	sinkElement = x
}

// sinkElement defeats dead-code elimination of pure field kernels.
var sinkElement field.Element

func benchNTT(b *testing.B, logN int, spec ntt.Spec) {
	data := make([]field.Element, 1<<logN)
	for i := range data {
		data[i] = field.New(uint64(i)*0x9e3779b9 + 12345)
	}
	run := func() {
		if err := ntt.Transform(context.Background(), data, spec); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm twiddle tables and pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// wiresN, wiresCols and wiresRateBits are the shape of plonk's wires commitment on an MVM 2^11
// proof: 48 columns of 2^11 coefficients at the rate-3 blowup.
const wiresN, wiresCols, wiresRateBits = 1 << 11, 48, 3

// wiresCoeffs returns fixed coefficient columns of the wires shape.
func wiresCoeffs() [][]field.Element {
	src := make([][]field.Element, wiresCols)
	for i := range src {
		src[i] = make([]field.Element, wiresN)
		for j := range src[i] {
			src[i][j] = field.New(uint64(i*wiresN+j)*0x9e3779b9 + 12345)
		}
	}
	return src
}

// benchLDEColumns is the LDE of plonk's wires commitment on an MVM 2^11
// proof: 48 columns of 2^11 coefficients extended by the rate-3 blowup
// onto the coset, bit-reversed, through ntt.Columns.
func benchLDEColumns(b *testing.B) {
	src := wiresCoeffs()
	dst := make([][]field.Element, wiresCols)
	for i := range dst {
		dst[i] = make([]field.Element, wiresN<<wiresRateBits)
	}
	spec := ntt.Spec{Shift: field.MultiplicativeGenerator, OutBR: true}
	run := func() {
		if err := ntt.Columns(context.Background(), dst, src, spec); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm twiddle tables and pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// benchFRICommit is plonk's wires commitment on an MVM 2^11 proof end to
// end, through fri.CommitCoeffsContext with a height-4 cap: the LDE of
// the 48 columns, the Merkle leaf hashes over the LDE's rows and the
// tree. The batch's pooled buffers are released after each commit, as
// a prover does after each proof.
func benchFRICommit(b *testing.B) {
	coeffs := wiresCoeffs()
	run := func() {
		batch, err := fri.CommitCoeffsContext(context.Background(), coeffs, wiresRateBits, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		batch.Release()
	}
	run() // warm twiddle tables and pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// benchPlonkQuotient reruns the quotient phase of a PlonkyConfig proof
// of the MVM workload at 2^11 rows.
func benchPlonkQuotient(b *testing.B) {
	wl, err := workloads.ByName("MVM")
	if err != nil {
		b.Fatal(err)
	}
	c, w, _, err := wl.Build(11, fri.PlonkyConfig())
	if err != nil {
		b.Fatal(err)
	}
	quotient, err := c.QuotientKernel(w)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := quotient(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := quotient(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPlonkWitness times the witness phase of a proof of the MVM
// workload at 2^11 rows: cloning the compiled witness, running the
// generators and materializing the wire columns.
func benchPlonkWitness(b *testing.B) {
	wl, err := workloads.ByName("MVM")
	if err != nil {
		b.Fatal(err)
	}
	c, w, _, err := wl.Build(11, fri.PlonkyConfig())
	if err != nil {
		b.Fatal(err)
	}
	witness := c.WitnessKernel(w)
	ctx := context.Background()
	if err := witness(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := witness(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStarkQuotient reruns the quotient phase of a StarkyConfig proof
// of the SHA-256 AIR at 2^12 rows.
func benchStarkQuotient(b *testing.B) {
	wl, err := workloads.StarkByName("SHA-256")
	if err != nil {
		b.Fatal(err)
	}
	s, cols, err := wl.Build(12, fri.StarkyConfig())
	if err != nil {
		b.Fatal(err)
	}
	quotient, err := s.QuotientKernel(cols)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := quotient(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := quotient(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// verifyCase is a verify row's fixture: a compiled job and the
// wire-encoded result of one proof of it.
type verifyCase struct {
	job *jobs.Job
	raw []byte
}

// proveOnce compiles and proves req on first use, as the repository
// benchmark's prove-merkle workload does.
func proveOnce(req jobs.Request) func() (verifyCase, error) {
	return sync.OnceValues(func() (verifyCase, error) {
		j, err := jobs.Compile(&req)
		if err != nil {
			return verifyCase{}, err
		}
		res, err := j.Prove(context.Background())
		if err != nil {
			return verifyCase{}, err
		}
		raw, err := res.MarshalBinary()
		return verifyCase{job: j, raw: raw}, err
	})
}

var (
	plonkVerifyCase = proveOnce(jobs.Request{Kind: jobs.KindPlonk, Workload: "MVM", LogRows: 11})
	starkVerifyCase = proveOnce(jobs.Request{Kind: jobs.KindStark, Workload: "SHA-256", LogRows: 12})
)

// benchVerify times what the repository benchmark's verify times on one
// fixed proof: decoding the wire-encoded result, then Job.Check.
func benchVerify(b *testing.B, fixture func() (verifyCase, error)) {
	vc, err := fixture()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res jobs.Result
		if err := res.UnmarshalBinary(vc.raw); err != nil {
			b.Fatal(err)
		}
		if err := vc.job.Check(&res); err != nil {
			b.Fatal(err)
		}
	}
}

// combineFixture is the fri/combine row's fixture, built once: the
// openings of a PlonkyConfig proof of MVM at 2^11 rows — 128 constant,
// 48 wire, 16 Z and 3 quotient polynomials at rate 3, all opened at ζ
// and the Z polynomials again at g·ζ, 211 in all.
var combineFixture = sync.OnceValues(func() ([]*fri.PolynomialBatch, []fri.PointGroup) {
	const logN, rateBits = 11, 3
	n := 1 << logN
	var oracles []*fri.PolynomialBatch
	for i, k := range []int{128, 48, 16, 3} {
		coeffs := make([][]field.Element, k)
		for p := range coeffs {
			coeffs[p] = make([]field.Element, n)
			for j := range coeffs[p] {
				coeffs[p][j] = field.New(uint64((i*256+p)*n+j)*0x9e37_79b9_7f4a_7c15 + 1)
			}
		}
		oracles = append(oracles, fri.CommitCoeffs(coeffs, rateBits, 4, nil))
	}
	zeta := field.NewExt(0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321)
	return oracles, []fri.PointGroup{
		{Point: zeta, Oracles: []int{0, 1, 2, 3}},
		{Point: field.ExtScalarMul(field.PrimitiveRootOfUnity(logN), zeta), Oracles: []int{2}},
	}
})

// benchFRICombine times the combination of all openings into FRI's
// layer 0 on the fixture.
func benchFRICombine(b *testing.B) {
	oracles, groups := combineFixture()
	opened := make(fri.OpenedValues, len(groups))
	for gi, g := range groups {
		for _, oi := range g.Oracles {
			opened[gi] = append(opened[gi], oracles[oi].EvalAll(g.Point, nil))
		}
	}
	alpha := field.NewExt(0x2545_f491, 0x7f4a_7c15)
	_ = fri.Combine(oracles, groups, opened, alpha)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fri.Combine(oracles, groups, opened, alpha)
	}
}

// benchFRIEvalAll times the prover's openings on the fri/combine
// fixture: every oracle evaluated at each point it is opened at.
func benchFRIEvalAll(b *testing.B) {
	oracles, groups := combineFixture()
	open := func() {
		for _, g := range groups {
			for _, oi := range g.Oracles {
				_ = oracles[oi].EvalAll(g.Point, nil)
			}
		}
	}
	open()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		open()
	}
}

func benchPermute(b *testing.B) {
	var s poseidon.State
	for i := range s {
		s[i] = field.New(uint64(i) * 0x9e37_79b9_7f4a_7c15)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = poseidon.Permute(s) // dependent chain, as in a sponge
	}
	sinkElement = s[0]
}

// benchPermuteX8 reports ns per permutation of the batched path: each
// TwoToOneBatch call is one eight-wide permutation call, and counts as
// eight ops.
func benchPermuteX8(b *testing.B) {
	children := make([]poseidon.HashOut, 16)
	for i := range children {
		for j := range children[i] {
			children[i][j] = field.New(uint64(i*4+j) * 0x9e37_79b9_7f4a_7c15)
		}
	}
	out := make([]poseidon.HashOut, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i += 8 {
		poseidon.TwoToOneBatch(children, out)
	}
	sinkElement = out[0][0]
}

func benchHashNoPad(b *testing.B) {
	in := make([]field.Element, 32)
	for i := range in {
		in[i] = field.New(uint64(i) + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkElement = poseidon.HashNoPad(in)[0]
	}
}

func benchTwoToOne(b *testing.B) {
	l := poseidon.HashOut{1, 2, 3, 4}
	r := poseidon.HashOut{5, 6, 7, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l = poseidon.TwoToOne(l, r)
	}
	sinkElement = l[0]
}

// grindTranscript is the fixed transcript of the fri/grind/16-bit
// kernel: eleven observations leave three pending inputs, so the
// witness lands mid-rate. Its 16-bit witness and tries are pinned in
// TestGrindKernelTranscript.
func grindTranscript() *poseidon.Challenger {
	ch := poseidon.NewChallenger()
	for i := uint64(0); i < 11; i++ {
		ch.Observe(field.New(1000 + i))
	}
	return ch
}

func benchGrind(b *testing.B) {
	ch := grindTranscript()
	for i := 0; i < b.N; i++ {
		w, _, err := ch.Grind(context.Background(), 16)
		if err != nil {
			b.Fatalf("grind: %v", err)
		}
		sinkElement = w
	}
}

// benchMerkleCommit builds a 2^12-leaf tree of width-element leaves.
// Leaves of at most four elements pass through HashOrNoop unhashed, so
// width 4 measures the tree levels alone and width 32 (four sponge
// blocks) adds leaf hashing.
func benchMerkleCommit(b *testing.B, width int) {
	const n = 1 << 12
	flat := make([]field.Element, width*n)
	leaves := make([][]field.Element, n)
	for i := range leaves {
		row := flat[width*i : width*(i+1)]
		for j := range row {
			row[j] = field.New(uint64(i*width + j + 1))
		}
		leaves[i] = row
	}
	merkle.Build(leaves, 4).Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merkle.Build(leaves, 4).Release()
	}
}

// verifyOpenings is the merkle/verify rows' fixture, built once: 28
// openings (PlonkyConfig's query count) of 135-element rows from a
// 2^14-leaf tree with a height-4 cap.
var verifyOpenings = sync.OnceValues(func() (merkle.Cap, []merkle.Opening) {
	const n, width, queries = 1 << 14, 135, 28
	flat := make([]field.Element, width*n)
	leaves := make([][]field.Element, n)
	for i := range leaves {
		row := flat[width*i : width*(i+1)]
		for j := range row {
			row[j] = field.New(uint64(i*width+j) * 0x9e37_79b9_7f4a_7c15)
		}
		leaves[i] = row
	}
	tree := merkle.Build(leaves, 4)
	ops := make([]merkle.Opening, queries)
	for q := range ops {
		idx := (q*0x9e37 + 11) % n
		ops[q] = merkle.Opening{Leaf: leaves[idx], Index: idx, Proof: tree.Open(idx)}
	}
	return tree.Cap(), ops
})

// benchMerkleVerify checks the fixture's openings one at a time with
// Verify, or together with VerifyBatch, and reports ns per opening.
func benchMerkleVerify(b *testing.B, batch bool) {
	c, ops := verifyOpenings()
	ok := make([]bool, len(ops))
	b.ResetTimer()
	for i := 0; i < b.N; i += len(ops) {
		if batch {
			if err := merkle.VerifyBatch(c, ops, ok); err != nil {
				b.Fatal(err)
			}
		} else {
			for k, op := range ops {
				ok[k] = merkle.Verify(op.Leaf, op.Index, op.Proof, c) == nil
			}
		}
		for k := range ok {
			if !ok[k] {
				b.Fatalf("opening %d rejected", k)
			}
		}
	}
}

func benchFRIFold(b *testing.B) {
	layer := make([]field.Ext, 1<<15)
	for i := range layer {
		layer[i] = field.NewExt(uint64(i+1), uint64(2*i+3))
	}
	beta := field.NewExt(77, 13)
	shift := field.MultiplicativeGenerator
	_ = fri.FoldLayer(layer, beta, shift)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fri.FoldLayer(layer, beta, shift)
	}
}
