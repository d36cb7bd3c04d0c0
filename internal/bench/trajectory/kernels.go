package trajectory

import (
	"context"
	"fmt"
	"testing"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/plonk"
	"unizk/internal/poseidon"
	"unizk/internal/stark"
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
// variants, Merkle commitment, FRI folding, and the end-to-end provers.
func Kernels() []Kernel {
	ks := []Kernel{
		{Name: "field/mul/4096", Bench: benchFieldMul},
		{Name: "field/inverse", Bench: benchFieldInverse},
	}
	for _, logN := range nttSizes {
		logN := logN
		ks = append(ks,
			Kernel{Name: sizeName("ntt/forwardNN", logN), Bench: func(b *testing.B) { benchNTT(b, logN, ntt.ForwardNN) }},
			Kernel{Name: sizeName("ntt/inverseNN", logN), Bench: func(b *testing.B) { benchNTT(b, logN, ntt.InverseNN) }},
			Kernel{Name: sizeName("ntt/cosetForwardNR", logN), Bench: func(b *testing.B) {
				benchNTT(b, logN, func(d []field.Element) { ntt.CosetForwardNR(d, field.MultiplicativeGenerator) })
			}},
		)
	}
	ks = append(ks,
		Kernel{Name: "poseidon/permute", Bench: benchPermute},
		Kernel{Name: "poseidon/hash-no-pad/32", Bench: benchHashNoPad},
		Kernel{Name: "merkle/two-to-one", Bench: benchTwoToOne},
		Kernel{Name: "fri/grind/16-bit", Bench: benchGrind},
		Kernel{Name: "merkle/commit/2^12", Bench: benchMerkleCommit},
		Kernel{Name: "fri/fold/2^15", Bench: benchFRIFold},
		Kernel{Name: "plonk/prove/fib-40", Bench: benchPlonkProve},
		Kernel{Name: "stark/prove/fib-2^10", Bench: benchStarkProve},
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

func benchNTT(b *testing.B, logN int, fn func([]field.Element)) {
	data := make([]field.Element, 1<<logN)
	for i := range data {
		data[i] = field.New(uint64(i)*0x9e3779b9 + 12345)
	}
	fn(data) // warm twiddle tables and pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(data)
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

func benchMerkleCommit(b *testing.B) {
	const n = 1 << 12
	flat := make([]field.Element, 4*n)
	leaves := make([][]field.Element, n)
	for i := range leaves {
		row := flat[4*i : 4*i+4]
		for j := range row {
			row[j] = field.New(uint64(i*4 + j + 1))
		}
		leaves[i] = row
	}
	merkle.Build(leaves, 4).Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merkle.Build(leaves, 4).Release()
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

func benchPlonkProve(b *testing.B) {
	bld := plonk.NewBuilder()
	f0 := bld.AddPublicInput()
	f1 := bld.AddPublicInput()
	result := bld.AddPublicInput()
	prev, cur := f0, f1
	for i := 2; i <= 40; i++ {
		prev, cur = cur, bld.Add(prev, cur)
	}
	bld.AssertEqual(cur, result)
	c := bld.Build(fri.TestConfig())

	want := field.Zero
	{
		x, y := field.Zero, field.One
		for i := 2; i <= 40; i++ {
			x, y = y, field.Add(x, y)
		}
		want = y
	}
	prove := func() {
		w := c.NewWitness()
		w.Set(f0, field.New(0))
		w.Set(f1, field.New(1))
		w.Set(result, want)
		if _, err := c.Prove(w, nil); err != nil {
			b.Fatalf("prove: %v", err)
		}
	}
	prove()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prove()
	}
}

func benchStarkProve(b *testing.B) {
	const logN = 10
	n := 1 << logN
	c0 := make([]field.Element, n)
	c1 := make([]field.Element, n)
	c0[0], c1[0] = field.Zero, field.One
	for r := 1; r < n; r++ {
		c0[r] = c1[r-1]
		c1[r] = field.Add(c0[r-1], c1[r-1])
	}
	air := stark.AIR{
		Width: 2,
		Transitions: []*stark.Expr{
			stark.Sub(stark.Next(0), stark.Col(1)),
			stark.Sub(stark.Next(1), stark.Add(stark.Col(0), stark.Col(1))),
		},
		FirstRow: []stark.Boundary{{Col: 0, Value: 0}, {Col: 1, Value: 1}},
		LastRow:  []stark.Boundary{{Col: 1, Value: c1[n-1]}},
	}
	s, err := stark.New(air, logN, fri.TestConfig())
	if err != nil {
		b.Fatalf("new: %v", err)
	}
	cols := [][]field.Element{c0, c1}
	if _, err := s.Prove(cols, nil); err != nil {
		b.Fatalf("prove: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Prove(cols, nil); err != nil {
			b.Fatalf("prove: %v", err)
		}
	}
}
