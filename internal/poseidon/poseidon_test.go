package poseidon

import (
	"math/rand"
	"testing"
	"testing/quick"

	"unizk/internal/field"
)

func toLanes(s State) (x lanes) {
	for i, e := range s {
		x[i] = uint64(e)
	}
	return x
}

func randState(rng *rand.Rand) State {
	var s State
	for i := range s {
		s[i] = field.New(rng.Uint64())
	}
	return s
}

// TestFastMatchesNaive is the central property: the optimized permutation
// (paper Algorithm 1 with derived PreMDSMatrix / SparseMDSMatrix) computes
// exactly the textbook Poseidon permutation.
func TestFastMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		s := randState(rng)
		if Permute(s) != PermuteNaive(s) {
			t.Fatalf("fast and naive permutations differ on input %v", s)
		}
	}
}

func TestFastMatchesNaiveQuick(t *testing.T) {
	f := func(raw [Width]uint64) bool {
		var s State
		for i := range s {
			s[i] = field.New(raw[i])
		}
		return Permute(s) == PermuteNaive(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSparseFactorization checks the matrix identity behind the fast form:
// reconstructing dense round matrices from the factorization reproduces
// the original chain of MDS multiplications.
func TestSparseFactorization(t *testing.T) {
	// Composing the fast chain's linear parts must equal composing the
	// naive chain's: Sparse_{R-1}···Sparse_0·M_I = M^R (no constants, and
	// treating the S-box as identity — valid because both chains are
	// purely linear once the S-box is removed and constants are zero).
	m := MDSMatrix()
	naive := Identity(Width)
	for r := 0; r < PartialRounds; r++ {
		naive = m.Mul(naive)
	}
	fast := FastInitMatrix()
	for _, sp := range FastSparseMatrices() {
		fast = sp.Dense().Mul(fast)
	}
	for i := 0; i < Width; i++ {
		for j := 0; j < Width; j++ {
			if naive[i][j] != fast[i][j] {
				t.Fatalf("linear parts differ at (%d,%d)", i, j)
			}
		}
	}
}

func TestInitMatrixFixesElementZero(t *testing.T) {
	m := FastInitMatrix()
	if m[0][0] != field.One {
		t.Error("init matrix corner must be 1")
	}
	for i := 1; i < Width; i++ {
		if m[0][i] != 0 || m[i][0] != 0 {
			t.Error("init matrix first row/column must be identity")
		}
	}
}

func TestSparseApplyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sp := range FastSparseMatrices() {
		s := randState(rng)
		dense := sp.Dense()
		want := dense.MulVec(s[:])
		got := toLanes(s)
		sp.apply(&got)
		for i := 0; i < Width; i++ {
			if field.New(got[i]) != want[i] {
				t.Fatalf("sparse apply differs from dense at %d", i)
			}
		}
	}
}

func TestPermuteDeterministicAndMixing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randState(rng)
	if Permute(s) != Permute(s) {
		t.Fatal("permutation not deterministic")
	}
	// Flipping one bit of one element must change every output element
	// (full diffusion) with overwhelming probability.
	s2 := s
	s2[5] = field.Add(s2[5], field.One)
	a, b := Permute(s), Permute(s2)
	for i := range a {
		if a[i] == b[i] {
			t.Fatalf("no diffusion into output element %d", i)
		}
	}
}

func TestSbox(t *testing.T) {
	f := func(raw uint64) bool {
		x := field.New(raw)
		return sbox(x) == field.Exp(x, 7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMDSMatrixMatchesLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := MDSMatrix()
	s := randState(rng)
	want := m.MulVec(s[:])
	got := toLanes(s)
	mdsLayer(&got)
	for i := range got {
		if field.New(got[i]) != want[i] {
			t.Fatalf("mdsLayer differs from dense MDS at %d", i)
		}
	}
}

func TestMatrixInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(12)
		m := NewMatrix(n)
		for i := range m {
			for j := range m[i] {
				m[i][j] = field.New(rng.Uint64())
			}
		}
		inv, err := m.Inverse()
		if err != nil {
			continue // random singular matrix: astronomically unlikely, but legal
		}
		prod := m.Mul(inv)
		id := Identity(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if prod[i][j] != id[i][j] {
					t.Fatalf("M·M⁻¹ != I at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestMatrixInverseSingular(t *testing.T) {
	m := NewMatrix(3) // zero matrix
	if _, err := m.Inverse(); err == nil {
		t.Fatal("expected error inverting singular matrix")
	}
}

func TestHashNoPad(t *testing.T) {
	// Deterministic, length-sensitive, input-sensitive.
	in := []field.Element{1, 2, 3, 4, 5}
	h1 := HashNoPad(in)
	h2 := HashNoPad(in)
	if h1 != h2 {
		t.Fatal("hash not deterministic")
	}
	in2 := []field.Element{1, 2, 3, 4, 6}
	if HashNoPad(in2) == h1 {
		t.Fatal("hash ignores input change")
	}
	// Documented no-pad property: the sponge does not domain-separate
	// lengths, so appending zeros within one rate block collides. Callers
	// (Merkle leaves, challenger) always use fixed-length inputs.
	in3 := []field.Element{1, 2, 3, 4, 5, 0}
	if HashNoPad(in3) != h1 {
		t.Fatal("no-pad sponge should treat in-block trailing zeros as absent")
	}
	// A second rate block does change the digest even if all-zero.
	in4 := []field.Element{1, 2, 3, 4, 5, 0, 0, 0, 0}
	if HashNoPad(in4) == h1 {
		t.Fatal("extra permutation block must change the digest")
	}
}

func TestHashNoPadLongInput(t *testing.T) {
	// Inputs longer than the rate exercise multi-block absorption, as in
	// Merkle leaves of width 135 (paper §5.3).
	rng := rand.New(rand.NewSource(6))
	long := make([]field.Element, 135)
	for i := range long {
		long[i] = field.New(rng.Uint64())
	}
	h := HashNoPad(long)
	long[134] = field.Add(long[134], field.One)
	if HashNoPad(long) == h {
		t.Fatal("last element of long input not absorbed")
	}
}

func TestTwoToOne(t *testing.T) {
	a := HashNoPad([]field.Element{1})
	b := HashNoPad([]field.Element{2})
	if TwoToOne(a, b) == TwoToOne(b, a) {
		t.Fatal("TwoToOne must not be symmetric")
	}
	if TwoToOne(a, b) != TwoToOne(a, b) {
		t.Fatal("TwoToOne not deterministic")
	}
}

func TestHashOrNoop(t *testing.T) {
	short := []field.Element{7, 8}
	h := HashOrNoop(short)
	want := HashOut{7, 8, 0, 0}
	if h != want {
		t.Fatalf("short input should be identity-padded, got %v", h)
	}
	long := []field.Element{1, 2, 3, 4, 5}
	if HashOrNoop(long) != HashNoPad(long) {
		t.Fatal("long input should be hashed")
	}
}

func TestChallengerDeterminism(t *testing.T) {
	run := func() []field.Element {
		c := NewChallenger()
		c.Observe(field.New(42))
		c.ObserveHash(HashNoPad([]field.Element{1, 2, 3}))
		var out []field.Element
		for i := 0; i < 20; i++ {
			out = append(out, c.Sample())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("challenger not deterministic")
		}
	}
}

func TestChallengerObservationSensitivity(t *testing.T) {
	c1 := NewChallenger()
	c1.Observe(field.New(1))
	c2 := NewChallenger()
	c2.Observe(field.New(2))
	if c1.Sample() == c2.Sample() {
		t.Fatal("different observations produced equal challenges")
	}
}

func TestChallengerInterleaving(t *testing.T) {
	// Observing after sampling must affect subsequent samples.
	c := NewChallenger()
	c.Observe(field.New(1))
	s1 := c.Sample()
	c.Observe(field.New(9))
	s2 := c.Sample()

	c2 := NewChallenger()
	c2.Observe(field.New(1))
	if got := c2.Sample(); got != s1 {
		t.Fatal("same prefix must give same first challenge")
	}
	_ = c2.Sample() // drain one more without observing
	// s2 from interleaved run must differ from plain continued sampling.
	c3 := NewChallenger()
	c3.Observe(field.New(1))
	_ = c3.Sample()
	if c3.Sample() == s2 {
		t.Fatal("observation between samples had no effect")
	}
}

func TestChallengerSampleBits(t *testing.T) {
	c := NewChallenger()
	c.Observe(field.New(5))
	for i := 0; i < 100; i++ {
		v := c.SampleBits(10)
		if v >= 1<<10 {
			t.Fatalf("SampleBits(10) = %d out of range", v)
		}
	}
}

func TestChallengerSampleExt(t *testing.T) {
	c := NewChallenger()
	c.Observe(field.New(3))
	e := c.SampleExt()
	if e.IsZero() {
		t.Fatal("extension challenge should be nonzero with overwhelming probability")
	}
}

func BenchmarkPermute(b *testing.B) {
	var s State
	for i := range s {
		s[i] = field.New(uint64(i * 7919))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = Permute(s)
	}
}

func BenchmarkPermuteNaive(b *testing.B) {
	var s State
	for i := range s {
		s[i] = field.New(uint64(i * 7919))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = PermuteNaive(s)
	}
}

func BenchmarkHashNoPad135(b *testing.B) {
	in := make([]field.Element, 135)
	for i := range in {
		in[i] = field.New(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashNoPad(in)
	}
}

// laneEdges are the values where the lane kernels' carry, borrow and
// canonicalisation corrections fire: around 2^32, p and 2^64.
var laneEdges = []uint64{
	0, 1, epsilon, 1 << 32, 1<<32 + 1, 1 << 63,
	field.Order - 1, field.Order, field.Order + 1, 1<<64 - 2, 1<<64 - 1,
}

// TestLaneArithmetic checks the non-canonical lane kernels against the
// canonical field operations on every pair of edge values.
func TestLaneArithmetic(t *testing.T) {
	for _, a := range laneEdges {
		for _, b := range laneEdges {
			fa, fb := field.New(a), field.New(b)
			if got := field.New(mulLane(a, b)); got != field.Mul(fa, fb) {
				t.Fatalf("mulLane(%#x, %#x) = %#x", a, b, got)
			}
			if b < field.Order {
				if got := field.New(addLane(a, b)); got != field.Add(fa, fb) {
					t.Fatalf("addLane(%#x, %#x) = %#x", a, b, got)
				}
			}
			if got := field.New(reduce128(a, b)); got != field.Reduce128(a, b) {
				t.Fatalf("reduce128(%#x, %#x) = %#x", a, b, got)
			}
		}
	}
}

// FuzzPermute checks Permute against PermuteNaive, and the lane rounds
// on raw (possibly non-canonical) 64-bit lanes against the naive
// permutation of their canonical values.
func FuzzPermute(f *testing.F) {
	edges := []uint64{0, field.Order - 1, 1<<32 - 1, 1 << 32, 1 << 63}
	for k := range edges {
		var s [Width]uint64
		for i := range s {
			s[i] = edges[(i+k)%len(edges)]
		}
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11])
	}
	p := field.Order - 1
	f.Add(p, p, p, p, p, p, p, p, p, p, p, p)
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 uint64) {
		raw := lanes{a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11}
		var s State
		for i, v := range raw {
			s[i] = field.New(v)
		}
		want := PermuteNaive(s)
		if got := Permute(s); got != want {
			t.Fatalf("Permute(%v) = %v, PermuteNaive = %v", s, got, want)
		}
		permuteLanes(&raw)
		for i, v := range raw {
			if field.New(v) != want[i] {
				t.Fatalf("permuteLanes lane %d = %#x, PermuteNaive = %v", i, v, want[i])
			}
		}
	})
}
