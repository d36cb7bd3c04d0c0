// Package poly provides polynomial utilities shared by the proof systems:
// evaluation (base and extension points), element-wise vector arithmetic
// (the "miscellaneous polynomial operations" of the paper), and the
// quotient-chunk partial products of §5.4.
package poly

import "unizk/internal/field"

// Eval evaluates the polynomial with the given coefficients at x (Horner).
func Eval(coeffs []field.Element, x field.Element) field.Element {
	var acc field.Element
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = field.MulAdd(acc, x, coeffs[i])
	}
	return acc
}

// EvalExtCoeffs evaluates an extension-field coefficient vector at an
// extension point.
func EvalExtCoeffs(coeffs []field.Ext, x field.Ext) field.Ext {
	var acc field.Ext
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = field.ExtAdd(field.ExtMul(acc, x), coeffs[i])
	}
	return acc
}

// Add returns a + b element-wise (equal lengths required).
func Add(a, b []field.Element) []field.Element {
	mustSameLen(len(a), len(b))
	out := make([]field.Element, len(a))
	for i := range a {
		out[i] = field.Add(a[i], b[i])
	}
	return out
}

// Sub returns a - b element-wise.
func Sub(a, b []field.Element) []field.Element {
	mustSameLen(len(a), len(b))
	out := make([]field.Element, len(a))
	for i := range a {
		out[i] = field.Sub(a[i], b[i])
	}
	return out
}

// Mul returns a * b element-wise (pointwise product of evaluations).
func Mul(a, b []field.Element) []field.Element {
	mustSameLen(len(a), len(b))
	out := make([]field.Element, len(a))
	for i := range a {
		out[i] = field.Mul(a[i], b[i])
	}
	return out
}

// ScalarMul returns c·a element-wise.
func ScalarMul(c field.Element, a []field.Element) []field.Element {
	out := make([]field.Element, len(a))
	for i := range a {
		out[i] = field.Mul(c, a[i])
	}
	return out
}

// AddScalar returns a + c element-wise.
func AddScalar(a []field.Element, c field.Element) []field.Element {
	out := make([]field.Element, len(a))
	for i := range a {
		out[i] = field.Add(a[i], c)
	}
	return out
}

// Constant returns the length-n constant vector c.
func Constant(c field.Element, n int) []field.Element {
	out := make([]field.Element, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// ChunkProducts computes h[i] = Π_{j=8i}^{8i+7} q[j], the per-chunk
// products of paper Equation (1). len(q) must be a multiple of chunkSize.
func ChunkProducts(q []field.Element, chunkSize int) []field.Element {
	if chunkSize <= 0 || len(q)%chunkSize != 0 {
		panic("poly: q length must be a positive multiple of chunkSize")
	}
	h := make([]field.Element, len(q)/chunkSize)
	for i := range h {
		acc := field.One
		for j := 0; j < chunkSize; j++ {
			acc = field.Mul(acc, q[i*chunkSize+j])
		}
		h[i] = acc
	}
	return h
}

// PartialProducts computes PP[i] = Π_{j=0}^{i} h[j], the running products
// of paper Equation (2) — the long sequential dependency chain that §5.4's
// three-step mapping parallelizes on the accelerator.
func PartialProducts(h []field.Element) []field.Element {
	pp := make([]field.Element, len(h))
	acc := field.One
	for i, v := range h {
		acc = field.Mul(acc, v)
		pp[i] = acc
	}
	return pp
}

// ZeroPolyEval evaluates the vanishing polynomial Z_H(x) = x^N - 1 of the
// size-N subgroup H at an extension point.
func ZeroPolyEval(n uint64, x field.Ext) field.Ext {
	return field.ExtSub(field.ExtExp(x, n), field.ExtOne)
}

// Degree returns the degree of the coefficient vector, ignoring leading
// zeros (-1 for the zero polynomial).
func Degree(coeffs []field.Element) int {
	for i := len(coeffs) - 1; i >= 0; i-- {
		if coeffs[i] != 0 {
			return i
		}
	}
	return -1
}

func mustSameLen(a, b int) {
	if a != b {
		panic("poly: operand length mismatch")
	}
}
