package poly

import (
	"math/rand"
	"testing"
	"testing/quick"

	"unizk/internal/field"
)

// EvalExt evaluates a base-field coefficient vector at an extension
// point by Horner's rule in the extension.
func EvalExt(coeffs []field.Element, x field.Ext) field.Ext {
	var acc field.Ext
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = field.ExtAdd(field.ExtMul(acc, x), field.FromBase(coeffs[i]))
	}
	return acc
}

func randVec(rng *rand.Rand, n int) []field.Element {
	v := make([]field.Element, n)
	for i := range v {
		v[i] = field.New(rng.Uint64())
	}
	return v
}

func TestEvalSimple(t *testing.T) {
	// p(x) = 3 + 2x + x^2 at x = 5 -> 3 + 10 + 25 = 38.
	coeffs := []field.Element{3, 2, 1}
	if got := Eval(coeffs, field.New(5)); got != field.New(38) {
		t.Fatalf("Eval = %d, want 38", got)
	}
	if Eval(nil, field.New(5)) != 0 {
		t.Fatal("empty polynomial should evaluate to 0")
	}
}

func TestEvalExtConsistentWithBase(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coeffs := randVec(rng, 10)
	x := field.New(rng.Uint64())
	want := field.FromBase(Eval(coeffs, x))
	if got := EvalExt(coeffs, field.FromBase(x)); got != want {
		t.Fatal("EvalExt disagrees with Eval at embedded base point")
	}
}

func TestEvalExtCoeffs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := randVec(rng, 8)
	ext := make([]field.Ext, len(base))
	for i, c := range base {
		ext[i] = field.FromBase(c)
	}
	x := field.Ext{A: field.New(rng.Uint64()), B: field.New(rng.Uint64())}
	if EvalExtCoeffs(ext, x) != EvalExt(base, x) {
		t.Fatal("EvalExtCoeffs disagrees with EvalExt on embedded coeffs")
	}
}

func TestVectorOps(t *testing.T) {
	f := func(raw1, raw2 [6]uint64) bool {
		a := make([]field.Element, 6)
		b := make([]field.Element, 6)
		for i := 0; i < 6; i++ {
			a[i], b[i] = field.New(raw1[i]), field.New(raw2[i])
		}
		sum, diff, prod := Add(a, b), Sub(a, b), Mul(a, b)
		for i := 0; i < 6; i++ {
			if sum[i] != field.Add(a[i], b[i]) ||
				diff[i] != field.Sub(a[i], b[i]) ||
				prod[i] != field.Mul(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Add(make([]field.Element, 3), make([]field.Element, 4))
}

func TestScalarOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randVec(rng, 9)
	c := field.New(rng.Uint64())
	sm := ScalarMul(c, a)
	as := AddScalar(a, c)
	for i := range a {
		if sm[i] != field.Mul(c, a[i]) || as[i] != field.Add(a[i], c) {
			t.Fatal("scalar op mismatch")
		}
	}
	k := Constant(c, 4)
	for _, v := range k {
		if v != c {
			t.Fatal("Constant wrong")
		}
	}
}

func TestChunkAndPartialProducts(t *testing.T) {
	// The paper's running example: h[i] = chunk products, PP = prefix
	// products (Equations 1-2).
	rng := rand.New(rand.NewSource(4))
	q := randVec(rng, 64)
	h := ChunkProducts(q, 8)
	if len(h) != 8 {
		t.Fatalf("h length %d, want 8", len(h))
	}
	for i := range h {
		acc := field.One
		for j := 8 * i; j < 8*i+8; j++ {
			acc = field.Mul(acc, q[j])
		}
		if h[i] != acc {
			t.Fatalf("h[%d] mismatch", i)
		}
	}
	pp := PartialProducts(h)
	acc := field.One
	for i := range pp {
		acc = field.Mul(acc, h[i])
		if pp[i] != acc {
			t.Fatalf("PP[%d] mismatch", i)
		}
	}
}

func TestChunkProductsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad chunk size")
		}
	}()
	ChunkProducts(make([]field.Element, 10), 8)
}

func TestZeroPolyEval(t *testing.T) {
	// Z_H vanishes on H and is nonzero off it.
	logN := 4
	n := uint64(1) << logN
	w := field.PrimitiveRootOfUnity(logN)
	x := field.FromBase(field.Exp(w, 5))
	if !ZeroPolyEval(n, x).IsZero() {
		t.Fatal("Z_H should vanish on H")
	}
	off := field.FromBase(field.Mul(field.MultiplicativeGenerator, field.Exp(w, 5)))
	if ZeroPolyEval(n, off).IsZero() {
		t.Fatal("Z_H should not vanish on the coset")
	}
}

func TestDegree(t *testing.T) {
	if Degree(nil) != -1 {
		t.Fatal("degree of empty should be -1")
	}
	if Degree([]field.Element{0, 0}) != -1 {
		t.Fatal("degree of zero poly should be -1")
	}
	if Degree([]field.Element{5, 0, 3, 0}) != 2 {
		t.Fatal("degree with trailing zeros wrong")
	}
}
