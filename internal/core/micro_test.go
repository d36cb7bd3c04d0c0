package core

import (
	"context"
	"math/rand"
	"testing"

	"unizk/internal/field"
	"unizk/internal/ntt"
	"unizk/internal/poly"
	"unizk/internal/poseidon"
)

func randVec(rng *rand.Rand, n int) []field.Element {
	v := make([]field.Element, n)
	for i := range v {
		v[i] = field.New(rng.Uint64())
	}
	return v
}

// TestNTTPipelineValues: the delay-feedback pipeline dataflow computes the
// same transform as the reference NTT (bit-reversed output, Fig. 4a).
func TestNTTPipelineValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, logN := range []int{1, 2, 3, 5} {
		p := NewNTTPipeline(logN)
		in := randVec(rng, 1<<logN)
		got, cycles := p.Run(in)
		want := append([]field.Element(nil), in...)
		if err := ntt.Transform(context.Background(), want, ntt.Spec{OutBR: true}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("logN=%d: pipeline output %d mismatch", logN, i)
			}
		}
		if cycles <= int64(1<<logN) {
			t.Fatalf("logN=%d: cycle count %d too small", logN, cycles)
		}
	}
}

// TestNTTPipelineRegisterBudget: the paper sizes the pipeline at n = 2^5
// so each PE's buffering fits the 64-word register file (§5.1).
func TestNTTPipelineRegisterBudget(t *testing.T) {
	p := NewNTTPipeline(5)
	if p.MaxRegWords > 64 {
		t.Fatalf("size-32 pipeline needs %d register words per PE, budget is 64",
			p.MaxRegWords)
	}
	// A full-row pipeline (n = 2^11) would blow the register budget —
	// the reason the paper splits each row into two 6-PE pipelines.
	big := NewNTTPipeline(11)
	if big.MaxRegWords <= 64 {
		t.Fatal("size-2048 pipeline should exceed the register budget")
	}
}

// TestVariableNTTViaFixedPipelines: the SAM-style decomposition into
// pipeline-sized dimensions computes the true variable-length transform.
func TestVariableNTTViaFixedPipelines(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, logN := range []int{5, 9, 12} { // 512 = the paper's Fig. 4b example
		in := randVec(rng, 1<<logN)
		got := RunVariableNTT(in, 5)
		want := append([]field.Element(nil), in...)
		if err := ntt.Transform(context.Background(), want, ntt.Spec{}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("logN=%d: variable NTT mismatch at %d", logN, i)
			}
		}
	}
}

// TestFullRoundOnArray: the 12×8 mapping computes the textbook full round.
func TestFullRoundOnArray(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s poseidon.State
	for i := range s {
		s[i] = field.New(rng.Uint64())
	}
	// Reference: constant layer + S-box + MDS.
	var want poseidon.State
	mds := poseidon.MDSMatrix()
	var sboxed [poseidon.Width]field.Element
	for i := 0; i < poseidon.Width; i++ {
		sboxed[i] = poseidon.SBox(field.Add(s[i], poseidon.RoundConstant(0, i)))
	}
	for i := 0; i < poseidon.Width; i++ {
		var acc field.Element
		for j := 0; j < poseidon.Width; j++ {
			acc = field.MulAdd(mds[i][j], sboxed[j], acc)
		}
		want[i] = acc
	}
	got, cycles := FullRoundOnArray([]poseidon.State{s}, 0)
	if got[0] != want {
		t.Fatal("full round mapping disagrees with reference")
	}
	if cycles < 1 {
		t.Fatal("no cycles counted")
	}
	// Streaming throughput: 100 states should cost ~fill + 100 cycles.
	states := make([]poseidon.State, 100)
	for i := range states {
		states[i] = s
	}
	_, c100 := FullRoundOnArray(states, 0)
	if c100-cycles != 99 {
		t.Fatalf("streaming throughput not 1 state/cycle: Δ=%d", c100-cycles)
	}
}

// TestPartialRoundsOnArray: the 12×3 reverse-link mapping computes the
// fast partial rounds exactly, and 4 rounds take the documented 145
// cycles.
func TestPartialRoundsOnArray(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var s poseidon.State
	for i := range s {
		s[i] = field.New(rng.Uint64())
	}
	got, cycles := PartialRoundsOnArray(s)

	// Reference: the fast form's partial segment from poseidon.
	want := s
	first := poseidon.FastFirstConstant()
	for i := range want {
		want[i] = field.Add(want[i], first[i])
	}
	init := poseidon.FastInitMatrix()
	var tmp poseidon.State
	for i := 0; i < poseidon.Width; i++ {
		var acc field.Element
		for j := 0; j < poseidon.Width; j++ {
			acc = field.MulAdd(init[i][j], want[j], acc)
		}
		tmp[i] = acc
	}
	want = tmp
	for p, sp := range poseidon.FastSparseMatrices() {
		s0 := field.Add(poseidon.SBox(want[0]), poseidon.FastScalarConstant(p))
		dense := sp.Dense()
		var next poseidon.State
		in := append([]field.Element{s0}, want[1:]...)
		for i := 0; i < poseidon.Width; i++ {
			var acc field.Element
			for j := 0; j < poseidon.Width; j++ {
				acc = field.MulAdd(dense[i][j], in[j], acc)
			}
			next[i] = acc
		}
		want = next
	}
	if got != want {
		t.Fatal("partial round mapping disagrees with reference")
	}

	// Four rounds at 36 cycles plus drain = the paper's 145.
	perFour := int64(4*36 + 1)
	if perFour != PartialRoundLatency {
		t.Fatalf("4-round latency = %d, paper says %d", perFour, PartialRoundLatency)
	}
	if cycles <= 0 {
		t.Fatal("no cycles counted")
	}
}

// TestPermutationOnArray: chaining the region mappings reproduces the full
// Poseidon permutation bit-for-bit.
func TestPermutationOnArray(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		var s poseidon.State
		for i := range s {
			s[i] = field.New(rng.Uint64())
		}
		got, cycles := PermutationOnArray(s)
		if got != poseidon.Permute(s) {
			t.Fatal("array permutation disagrees with poseidon.Permute")
		}
		if cycles <= 0 {
			t.Fatal("no cycles counted")
		}
	}
}

func TestVectorMulAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 1000
	a, b, c := randVec(rng, n), randVec(rng, n), randVec(rng, n)
	got, cycles := VectorMulAdd(a, b, c, 12)
	for i := range got {
		if got[i] != field.MulAdd(a[i], b[i], c[i]) {
			t.Fatalf("vector mul-add mismatch at %d", i)
		}
	}
	if want := int64((n + 143) / 144); cycles != want {
		t.Fatalf("cycles = %d, want %d", cycles, want)
	}
}

// TestPartialProductsOnArray: the three-step Fig. 6 scheme equals the
// sequential prefix product (Equation 2).
func TestPartialProductsOnArray(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{64, 512, 8192} {
		q := randVec(rng, n)
		got, cycles := PartialProductsOnArray(q, 12)
		want := poly.PartialProducts(poly.ChunkProducts(q, 8))
		if len(got) != len(want) {
			t.Fatalf("n=%d: length %d, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: PP[%d] mismatch", n, i)
			}
		}
		if cycles <= 0 {
			t.Fatal("no cycles counted")
		}
	}
}

func BenchmarkSimulatePlonkTrace(b *testing.B) {
	nodes := sampleNodes(2)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(nodes, cfg)
	}
}
