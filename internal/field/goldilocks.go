// Package field implements arithmetic in the Goldilocks prime field
// F_p with p = 2^64 - 2^32 + 1, and its degree-2 extension field
// F_p[X]/(X^2 - 7). These are the fields used by the Plonky2 and Starky
// proof systems that UniZK accelerates (paper §4: "All operations in
// UniZK are performed on 64-bit data elements in the Goldilocks field").
//
// All Element values are kept in canonical form (< p) at all times, so
// equality is plain ==.
package field

import (
	"math/bits"

	"unizk/internal/parallel"
)

// Order is the Goldilocks prime p = 2^64 - 2^32 + 1.
const Order uint64 = 0xFFFFFFFF00000001

// epsilon = 2^32 - 1 = 2^64 mod p. The identity 2^64 ≡ 2^32 - 1 (mod p)
// is what makes Goldilocks reduction cheap on 64-bit hardware, and is the
// reason the paper's modular multipliers are simple (§4).
const epsilon uint64 = 0xFFFFFFFF

// Element is a Goldilocks field element in canonical form.
type Element uint64

// Frequently used constants.
const (
	Zero Element = 0
	One  Element = 1
	Two  Element = 2
)

// MultiplicativeGenerator generates the full multiplicative group F_p^*.
// It is the coset shift g used by coset-NTTs and low degree extension.
const MultiplicativeGenerator Element = 7

// TwoAdicity is the largest k with 2^k | p-1; subgroups of any power-of-two
// order up to 2^32 exist, which is what makes radix-2 NTTs possible.
const TwoAdicity = 32

// New returns the canonical element for an arbitrary uint64.
func New(v uint64) Element {
	if v >= Order {
		v -= Order
	}
	return Element(v)
}

// Uint64 returns the canonical representative.
func (e Element) Uint64() uint64 { return uint64(e) }

// IsZero reports whether e == 0.
func (e Element) IsZero() bool { return e == 0 }

// Add returns a + b mod p.
//
//unizklint:hotpath
func Add(a, b Element) Element {
	s, carry := bits.Add64(uint64(a), uint64(b), 0)
	// a, b < p <= 2^64 - 2^32 + 1, so a+b < 2^65; on carry, subtracting p
	// is the same as adding epsilon to the wrapped sum.
	if carry != 0 {
		s += epsilon
	}
	if s >= Order {
		s -= Order
	}
	return Element(s)
}

// Sub returns a - b mod p.
//
//unizklint:hotpath
func Sub(a, b Element) Element {
	d, borrow := bits.Sub64(uint64(a), uint64(b), 0)
	if borrow != 0 {
		d -= epsilon // equivalent to adding p to the wrapped difference
	}
	return Element(d)
}

// Neg returns -a mod p.
//
//unizklint:hotpath
func Neg(a Element) Element {
	if a == 0 {
		return 0
	}
	return Element(Order - uint64(a))
}

// Double returns 2a mod p.
//
//unizklint:hotpath
func Double(a Element) Element { return Add(a, a) }

// Mul returns a * b mod p using the 2^64 ≡ 2^32 - 1 reduction.
//
//unizklint:hotpath
func Mul(a, b Element) Element {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return reduce128(hi, lo)
}

// Square returns a^2 mod p.
//
//unizklint:hotpath
func Square(a Element) Element { return Mul(a, a) }

// Reduce128 reduces a 128-bit value hi·2^64 + lo modulo p. It is exposed
// for callers that accumulate several small-by-large products in 128 bits
// before reducing once (e.g. the Poseidon MDS layer).
//
//unizklint:hotpath
func Reduce128(hi, lo uint64) Element { return reduce128(hi, lo) }

// reduce128 reduces a 128-bit value hi*2^64 + lo modulo p.
//
// Write hi = hiHi*2^32 + hiLo. Then
//
//	x ≡ lo + hiLo*(2^32 - 1) - hiHi  (mod p)
//
// because 2^64 ≡ 2^32 - 1 and 2^96 ≡ -1 (mod p).
//
//unizklint:hotpath
func reduce128(hi, lo uint64) Element {
	hiHi := hi >> 32
	hiLo := hi & epsilon

	t0, borrow := bits.Sub64(lo, hiHi, 0)
	if borrow != 0 {
		t0 -= epsilon // wraps; same as adding p
	}
	t1 := hiLo * epsilon // < 2^64, no overflow: (2^32-1)^2 < 2^64
	t2, carry := bits.Add64(t0, t1, 0)
	if carry != 0 {
		t2 += epsilon
	}
	if t2 >= Order {
		t2 -= Order
	}
	return Element(t2)
}

// Dot returns Σ a[i]·b[i] mod p with a single final reduction: products
// accumulate in a three-limb (lo, hi, carry) register using the identity
// 2^128 ≡ -2^32 (mod p). Slices must have equal length below 2^32.
//
//unizklint:hotpath
func Dot(a, b []Element) Element {
	var lo, hi, top uint64
	for i := range a {
		ph, pl := bits.Mul64(uint64(a[i]), uint64(b[i]))
		var c uint64
		lo, c = bits.Add64(lo, pl, 0)
		hi, c = bits.Add64(hi, ph, c)
		top += c
	}
	r := reduce128(hi, lo)
	if top != 0 {
		// top·2^128 ≡ -top·2^32; top < 2^32 so the shift stays canonical.
		r = Sub(r, Element(top<<32))
	}
	return r
}

// Exp returns base^exp mod p by square-and-multiply.
//
//unizklint:hotpath
func Exp(base Element, exp uint64) Element {
	result := One
	for exp > 0 {
		if exp&1 == 1 {
			result = Mul(result, base)
		}
		base = Square(base)
		exp >>= 1
	}
	return result
}

// Inverse returns a^-1 mod p, or 0 if a == 0 (callers that can receive a
// zero operand must check IsZero first; the proof systems in this repo
// only invert verifier challenges, which are nonzero with overwhelming
// probability, and guard the places where a zero is structurally possible).
//
//unizklint:hotpath
func Inverse(a Element) Element {
	if a == 0 {
		return 0
	}
	return Exp(a, Order-2)
}

// Div returns a / b mod p (0 if b == 0; see Inverse).
func Div(a, b Element) Element { return Mul(a, Inverse(b)) }

// MulAdd returns a*b + c mod p, the fused operation one UniZK PE performs
// per cycle (one modular multiplier + one modular adder, §4). The addend
// is folded into the 128-bit product before the single reduction, so the
// fused form pays one reduce128 where Add(Mul(a,b), c) pays a reduction
// and a separate carry-checked add. The carry into hi cannot overflow:
// a, b < p gives hi ≤ ⌊(p-1)²/2^64⌋ = 2^64 - 2^33 + 1 < 2^64 - 1.
//
//unizklint:hotpath
func MulAdd(a, b, c Element) Element {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	lo, carry := bits.Add64(lo, uint64(c), 0)
	return reduce128(hi+carry, lo)
}

// PrimitiveRootOfUnity returns a generator of the order-2^logN subgroup.
// It panics if logN > TwoAdicity, which would be a programming error.
func PrimitiveRootOfUnity(logN int) Element {
	if logN < 0 || logN > TwoAdicity {
		//unizklint:allow prooferrflow logN is a structural parameter fixed by the caller's config, never decoded from proof bytes
		panic("field: root of unity order out of range")
	}
	// powerOfTwoGenerator generates the order-2^32 subgroup.
	root := powerOfTwoGenerator()
	for i := TwoAdicity; i > logN; i-- {
		root = Square(root)
	}
	return root
}

// powerOfTwoGenerator = g^((p-1)/2^32) for the group generator g = 7.
// Computed once; matches plonky2's POWER_OF_TWO_GENERATOR.
func powerOfTwoGenerator() Element { return pow2Gen }

var pow2Gen = func() Element {
	// (p-1)/2^32 = 2^32 - 1 = epsilon.
	return Exp(MultiplicativeGenerator, epsilon)
}()

// inverseScratch pools BatchInverse's O(n) prefix-product array, so the
// steady-state prove loop allocates nothing: the hotalloc analyzer
// enforces this statically on the annotated kernels, and
// internal/allocgate pins it at runtime with testing.AllocsPerRun. The
// concurrent chunked callers in parinv.go each check out their own.
var inverseScratch parallel.Scratch[Element]

// BatchInverse inverts every element of xs in place using Montgomery's
// trick (one inversion + 3(n-1) multiplications). Zero entries stay zero.
//
//unizklint:hotpath
func BatchInverse(xs []Element) {
	n := len(xs)
	if n == 0 {
		return
	}
	// prefix[i] = product of non-zero xs[0..i]; pooled so the steady
	// state allocates nothing.
	sp := inverseScratch.Get(n)
	prefix := *sp
	acc := One
	for i, x := range xs {
		if x != 0 {
			acc = Mul(acc, x)
		}
		prefix[i] = acc
	}
	inv := Inverse(acc)
	for i := n - 1; i >= 0; i-- {
		if xs[i] == 0 {
			continue
		}
		var before Element = One
		if i > 0 {
			before = prefix[i-1]
		}
		thisInv := Mul(inv, before)
		inv = Mul(inv, xs[i])
		xs[i] = thisInv
	}
	inverseScratch.Put(sp)
}
