package ntt

import (
	"context"
	"math/rand"
	"testing"

	"unizk/internal/field"
)

func randVec(rng *rand.Rand, n int) []field.Element {
	v := make([]field.Element, n)
	for i := range v {
		v[i] = field.New(rng.Uint64())
	}
	return v
}

func clone(v []field.Element) []field.Element {
	out := make([]field.Element, len(v))
	copy(out, v)
	return out
}

// transform runs Transform in place, failing the test on error.
func transform(t testing.TB, data []field.Element, s Spec) {
	t.Helper()
	if err := Transform(context.Background(), data, s); err != nil {
		t.Fatal(err)
	}
}

// evalPoly evaluates the polynomial with the given coefficients at x
// (Horner), the ground truth for all transform tests.
func evalPoly(coeffs []field.Element, x field.Element) field.Element {
	acc := field.Zero
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = field.MulAdd(acc, x, coeffs[i])
	}
	return acc
}

func TestForwardNNMatchesEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, logN := range []int{0, 1, 2, 3, 5, 8} {
		n := 1 << logN
		coeffs := randVec(rng, n)
		evals := clone(coeffs)
		ForwardNN(evals)
		w := field.PrimitiveRootOfUnity(logN)
		x := field.One
		for i := 0; i < n; i++ {
			if evals[i] != evalPoly(coeffs, x) {
				t.Fatalf("logN=%d: eval[%d] mismatch", logN, i)
			}
			x = field.Mul(x, w)
		}
	}
}

func TestForwardNROrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 64
	coeffs := randVec(rng, n)
	nn := clone(coeffs)
	ForwardNN(nn)
	nr := clone(coeffs)
	transform(t, nr, Spec{OutBR: true})
	bits := Log2(n)
	for i := 0; i < n; i++ {
		if nr[i] != nn[BitReverse(i, bits)] {
			t.Fatalf("NR[%d] != NN[bitrev(%d)]", i, i)
		}
	}
}

func TestForwardRN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 128
	coeffs := randVec(rng, n)
	want := clone(coeffs)
	ForwardNN(want)
	got := clone(coeffs)
	BitReversePermute(got)
	transform(t, got, Spec{InBR: true})
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("RN mismatch at %d", i)
		}
	}
}

// TestRoundTrips inverts every forward Spec with the inverse Spec that
// reads the forward output order and writes the forward input order.
func TestRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, logN := range []int{0, 1, 4, 7, 10} {
		n := 1 << logN
		orig := randVec(rng, n)
		for _, fwd := range allSpecs() {
			if fwd.Inverse {
				continue
			}
			inv := Spec{Inverse: true, Shift: fwd.Shift, InBR: fwd.OutBR, OutBR: fwd.InBR}
			v := clone(orig)
			transform(t, v, fwd)
			transform(t, v, inv)
			for i := range v {
				if v[i] != orig[i] {
					t.Fatalf("logN=%d: %+v then %+v not identity", logN, fwd, inv)
				}
			}
		}
	}
}

func TestCosetTransforms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 32
	g := field.MultiplicativeGenerator
	coeffs := randVec(rng, n)

	evals := clone(coeffs)
	transform(t, evals, Spec{Shift: g})
	w := field.PrimitiveRootOfUnity(Log2(n))
	x := g
	for i := 0; i < n; i++ {
		if evals[i] != evalPoly(coeffs, x) {
			t.Fatalf("coset eval[%d] mismatch", i)
		}
		x = field.Mul(x, w)
	}

	back := clone(evals)
	transform(t, back, Spec{Inverse: true, Shift: g})
	for i := range back {
		if back[i] != coeffs[i] {
			t.Fatalf("coset round trip failed at %d", i)
		}
	}
}

func TestCosetForwardNROrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 64
	g := field.MultiplicativeGenerator
	coeffs := randVec(rng, n)
	nn := clone(coeffs)
	transform(t, nn, Spec{Shift: g})
	nr := clone(coeffs)
	transform(t, nr, Spec{Shift: g, OutBR: true})
	bits := Log2(n)
	for i := range nr {
		if nr[i] != nn[BitReverse(i, bits)] {
			t.Fatalf("coset NR order mismatch at %d", i)
		}
	}
}

func TestLDE(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, blowupBits := 16, 3
	g := field.MultiplicativeGenerator
	coeffs := randVec(rng, n)
	lde := LDE(coeffs, blowupBits, g)
	if len(lde) != n<<blowupBits {
		t.Fatalf("LDE length %d, want %d", len(lde), n<<blowupBits)
	}
	big := 1 << (Log2(n) + blowupBits)
	w := field.PrimitiveRootOfUnity(Log2(big))
	bits := Log2(big)
	for i := 0; i < big; i++ {
		x := field.Mul(g, field.Exp(w, uint64(BitReverse(i, bits))))
		if lde[i] != evalPoly(coeffs, x) {
			t.Fatalf("LDE[%d] mismatch", i)
		}
	}
}

// TestPolyMulNTT multiplies polynomials by the convolution theorem,
// pairing a bit-reversed-output forward Transform with a
// bit-reversed-input inverse, against schoolbook multiplication.
func TestPolyMulNTT(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		la, lb := 1+rng.Intn(20), 1+rng.Intn(20)
		a, b := randVec(rng, la), randVec(rng, lb)
		n := 1
		for n < la+lb-1 {
			n <<= 1
		}
		want := make([]field.Element, n) // zero above degree la+lb-2
		for i := range a {
			for j := range b {
				want[i+j] = field.Add(want[i+j], field.Mul(a[i], b[j]))
			}
		}
		fa, fb := make([]field.Element, n), make([]field.Element, n)
		copy(fa, a)
		copy(fb, b)
		transform(t, fa, Spec{OutBR: true})
		transform(t, fb, Spec{OutBR: true})
		for i := range fa {
			fa[i] = field.Mul(fa[i], fb[i])
		}
		transform(t, fa, Spec{Inverse: true, InBR: true})
		for i := range fa {
			if fa[i] != want[i] {
				t.Fatalf("trial %d: coeff %d mismatch", trial, i)
			}
		}
	}
}

func TestBitReverse(t *testing.T) {
	if BitReverse(0b001, 3) != 0b100 {
		t.Error("BitReverse(1,3) != 4")
	}
	if BitReverse(0b110, 3) != 0b011 {
		t.Error("BitReverse(6,3) != 3")
	}
	for i := 0; i < 256; i++ {
		if BitReverse(BitReverse(i, 8), 8) != i {
			t.Fatalf("double reverse not identity for %d", i)
		}
	}
}

func TestLog2Panics(t *testing.T) {
	for _, bad := range []int{0, -4, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Log2(%d) should panic", bad)
				}
			}()
			Log2(bad)
		}()
	}
}

func BenchmarkForwardNR4096(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	data := randVec(rng, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transform(b, data, Spec{OutBR: true})
	}
}

func BenchmarkForwardNR65536(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	data := randVec(rng, 65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transform(b, data, Spec{OutBR: true})
	}
}
