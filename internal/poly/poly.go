// Package poly provides polynomial utilities shared by the proof systems:
// evaluation (base and extension points), the vanishing polynomial, and
// the quotient-chunk partial products of §5.4.
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

// EvalExtCoeffsAt evaluates an extension-field coefficient vector at a
// base-field point: EvalExtCoeffs at field.FromBase(x), with two base
// products per coefficient instead of an extension product.
func EvalExtCoeffsAt(coeffs []field.Ext, x field.Element) field.Ext {
	var acc field.Ext
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = field.ExtAdd(field.ExtScalarMul(x, acc), coeffs[i])
	}
	return acc
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
