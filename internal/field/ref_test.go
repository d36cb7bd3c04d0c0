package field

import (
	"context"
	"math/rand"
	"testing"

	"unizk/internal/parallel"
)

// Differential layer: the optimized Goldilocks kernels against the
// math/big oracles in goldilocks_ref_test.go. Edge values cover every branch
// of the single-branch reduction (carry taken / not taken, canonical
// boundary), and the fuzzed sweep walks the full 64-bit input space with
// a fixed seed so failures reproduce.

// edgeElements are canonical operands that exercise the reduction
// branches: identities, the canonical boundary p-1, and values straddling
// 2^32 (where epsilon-arithmetic wraps).
var edgeElements = []Element{
	0, 1, 2, 3,
	Element(epsilon - 1), Element(epsilon), Element(epsilon + 1),
	Element(1 << 32), Element(1<<63 - 1), Element(1 << 63),
	Element(Order - 2), Element(Order - 1),
}

// edgeRaw are pre-reduction uint64 inputs for New: values at and beyond
// the modulus, including 2^64-1 (the largest representable input).
var edgeRaw = []uint64{
	0, 1, Order - 1, Order, Order + 1,
	epsilon, epsilon + 1, 1 << 63, ^uint64(0) - 1, ^uint64(0),
}

func TestRefNewEdges(t *testing.T) {
	for _, v := range edgeRaw {
		if got, want := New(v), RefNew(v); got != want {
			t.Errorf("New(%#x) = %#x, want %#x", v, got, want)
		}
	}
}

func TestRefBinaryOpsEdges(t *testing.T) {
	for _, a := range edgeElements {
		for _, b := range edgeElements {
			if got, want := Add(a, b), RefAdd(a, b); got != want {
				t.Errorf("Add(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
			if got, want := Sub(a, b), RefSub(a, b); got != want {
				t.Errorf("Sub(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
			if got, want := Mul(a, b), RefMul(a, b); got != want {
				t.Errorf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
			for _, c := range []Element{0, 1, Element(Order - 1), Element(epsilon)} {
				if got, want := MulAdd(a, b, c), RefMulAdd(a, b, c); got != want {
					t.Errorf("MulAdd(%#x, %#x, %#x) = %#x, want %#x", a, b, c, got, want)
				}
			}
		}
		if got, want := Neg(a), RefNeg(a); got != want {
			t.Errorf("Neg(%#x) = %#x, want %#x", a, got, want)
		}
		if got, want := Inverse(a), RefInverse(a); got != want {
			t.Errorf("Inverse(%#x) = %#x, want %#x", a, got, want)
		}
	}
}

func TestRefReduce128Edges(t *testing.T) {
	// hi sweeps the raw edge set including values ≥ p: Reduce128 accepts
	// any 128-bit value (callers accumulate unreduced products).
	for _, hi := range edgeRaw {
		for _, lo := range edgeRaw {
			if got, want := Reduce128(hi, lo), RefReduce128(hi, lo); got != want {
				t.Errorf("Reduce128(%#x, %#x) = %#x, want %#x", hi, lo, got, want)
			}
		}
	}
}

func TestRefFuzzedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(0xf1e1d))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		// Raw uint64s: New must agree on non-canonical inputs too.
		ra, rb := rng.Uint64(), rng.Uint64()
		if got, want := New(ra), RefNew(ra); got != want {
			t.Fatalf("New(%#x) = %#x, want %#x", ra, got, want)
		}
		a, b, c := New(ra), New(rb), New(rng.Uint64())
		if got, want := Add(a, b), RefAdd(a, b); got != want {
			t.Fatalf("Add(%#x, %#x) = %#x, want %#x", a, b, got, want)
		}
		if got, want := Sub(a, b), RefSub(a, b); got != want {
			t.Fatalf("Sub(%#x, %#x) = %#x, want %#x", a, b, got, want)
		}
		if got, want := Mul(a, b), RefMul(a, b); got != want {
			t.Fatalf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
		}
		if got, want := MulAdd(a, b, c), RefMulAdd(a, b, c); got != want {
			t.Fatalf("MulAdd(%#x, %#x, %#x) = %#x, want %#x", a, b, c, got, want)
		}
		if got, want := Reduce128(ra, rb), RefReduce128(ra, rb); got != want {
			t.Fatalf("Reduce128(%#x, %#x) = %#x, want %#x", ra, rb, got, want)
		}
		if got, want := Inverse(a), RefInverse(a); got != want {
			t.Fatalf("Inverse(%#x) = %#x, want %#x", a, got, want)
		}
		exp := rng.Uint64() >> (i % 48) // mix short and full-width exponents
		if got, want := Exp(a, exp), RefExp(a, exp); got != want {
			t.Fatalf("Exp(%#x, %d) = %#x, want %#x", a, exp, got, want)
		}
		x := Ext{a, b}
		y := Ext{c, New(rng.Uint64())}
		if got, want := ExtMul(x, y), RefExtMul(x, y); got != want {
			t.Fatalf("ExtMul(%v, %v) = %v, want %v", x, y, got, want)
		}
		if got, want := ExtInverse(x), RefExtInverse(x); got != want {
			t.Fatalf("ExtInverse(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestRefDot(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd07))
	for _, n := range []int{0, 1, 2, 3, 17, 256, 1000} {
		a := make([]Element, n)
		b := make([]Element, n)
		for i := range a {
			a[i] = New(rng.Uint64())
			b[i] = New(rng.Uint64())
		}
		// Saturate some entries at p-1 to stress the three-limb carry.
		for i := 0; i < n; i += 3 {
			a[i], b[i] = Element(Order-1), Element(Order-1)
		}
		if got, want := Dot(a, b), RefDot(a, b); got != want {
			t.Fatalf("Dot(n=%d) = %#x, want %#x", n, got, want)
		}
	}
}

// TestRefBatchInverse pins the batch kernels — serial and pool-chunked at
// several worker counts — against element-wise oracle inversion,
// including zero entries (which must stay zero).
func TestRefBatchInverse(t *testing.T) {
	prevWorkers := parallel.Workers()
	defer parallel.SetWorkers(prevWorkers)

	rng := rand.New(rand.NewSource(0xba7c4))
	for _, n := range []int{0, 1, 7, 512, 5000} {
		xs := make([]Element, n)
		for i := range xs {
			xs[i] = New(rng.Uint64())
		}
		for i := 0; i < n; i += 11 {
			xs[i] = 0
		}
		want := RefBatchInverse(xs)

		run := func(mode string, fn func([]Element)) {
			got := make([]Element, n)
			copy(got, xs)
			fn(got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d: index %d = %#x, want %#x", mode, n, i, got[i], want[i])
				}
			}
		}

		parallel.SetWorkers(1)
		run("serial", BatchInverse)
		for _, workers := range []int{1, 2, 7} {
			parallel.SetWorkers(workers)
			run("parallel", func(ys []Element) {
				if err := BatchInverseCtx(context.Background(), ys); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// FuzzMulAddRef lets the coverage-guided fuzzer hunt for carry-chain
// inputs the seeded sweep misses; the oracle is the ground truth.
func FuzzMulAddRef(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(Order-1, Order-1, Order-1)
	f.Add(^uint64(0), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, ra, rb, rc uint64) {
		a, b, c := New(ra), New(rb), New(rc)
		if got, want := MulAdd(a, b, c), RefMulAdd(a, b, c); got != want {
			t.Errorf("MulAdd(%#x, %#x, %#x) = %#x, want %#x", a, b, c, got, want)
		}
		if got, want := Mul(a, b), RefMul(a, b); got != want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
		}
		if got, want := Reduce128(ra, rb), RefReduce128(ra, rb); got != want {
			t.Errorf("Reduce128(%#x, %#x) = %#x, want %#x", ra, rb, got, want)
		}
	})
}
