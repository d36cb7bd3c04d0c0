package ntt

import "unizk/internal/field"

// Reference oracle for the transform kernels: the O(n²) DFT by
// definition, out[k] = Σ_j in[j]·w^(j·k), built on field.Exp and
// field.Inverse — which are themselves differential-tested against the
// math/big oracle in internal/field — and sharing nothing with the
// butterfly cores, twiddle tables, cache blocking, or the table cache.
// The differential tests in ref_test.go pin every optimized transform
// variant bit-identical to these oracles, so a broken blocked schedule,
// stale cached table, or wrong fused twiddle cannot ship silently. Like
// the field oracle this file is retained as a permanent non-test source
// of truth for future raw-speed passes.
//
// The oracles are deliberately quadratic — correctness only, never to be
// called from a proving path.

// refBitReverse is the oracle for BitReverse: one bit per iteration, low
// bit of x first.
func refBitReverse(x, nbits int) int {
	r := 0
	for i := 0; i < nbits; i++ {
		r = (r << 1) | (x & 1)
		x >>= 1
	}
	return r
}

// refPowerTable returns w^0..w^(n-1) with every entry computed by an
// independent field.Exp, not a running product.
func refPowerTable(w field.Element, n int) []field.Element {
	out := make([]field.Element, n)
	for i := range out {
		out[i] = field.Exp(w, uint64(i))
	}
	return out
}

// refDFT is the defining transform with root w: out[k] = Σ in[j]·w^(jk).
func refDFT(in []field.Element, w field.Element) []field.Element {
	n := len(in)
	pow := refPowerTable(w, n)
	out := make([]field.Element, n)
	for k := 0; k < n; k++ {
		var acc field.Element
		for j := 0; j < n; j++ {
			acc = field.Add(acc, field.Mul(in[j], pow[(j*k)%n]))
		}
		out[k] = acc
	}
	return out
}

// RefForwardNN is the oracle for ForwardNN: the defining DFT at the
// canonical primitive root.
func RefForwardNN(in []field.Element) []field.Element {
	return refDFT(in, field.PrimitiveRootOfUnity(Log2(len(in))))
}

// RefForwardNR is the oracle for ForwardNR: the natural-order transform
// permuted into bit-reversed output order.
func RefForwardNR(in []field.Element) []field.Element {
	out := RefForwardNN(in)
	BitReversePermute(out)
	return out
}

// RefInverseNN is the oracle for InverseNN: the DFT at w^-1 scaled by
// n^-1.
func RefInverseNN(in []field.Element) []field.Element {
	n := len(in)
	w := field.PrimitiveRootOfUnity(Log2(n))
	out := refDFT(in, field.Inverse(w))
	ninv := field.Inverse(field.New(uint64(n)))
	for i := range out {
		out[i] = field.Mul(out[i], ninv)
	}
	return out
}

// RefCosetForwardNN is the oracle for CosetForwardNN: scale coefficient
// j by shift^j, then transform.
func RefCosetForwardNN(in []field.Element, shift field.Element) []field.Element {
	scaled := make([]field.Element, len(in))
	for j := range in {
		scaled[j] = field.Mul(in[j], field.Exp(shift, uint64(j)))
	}
	return RefForwardNN(scaled)
}

// RefCosetInverseNN is the oracle for CosetInverseNN: inverse transform,
// then scale coefficient k by shift^-k.
func RefCosetInverseNN(in []field.Element, shift field.Element) []field.Element {
	out := RefInverseNN(in)
	sinv := field.Inverse(shift)
	for k := range out {
		out[k] = field.Mul(out[k], field.Exp(sinv, uint64(k)))
	}
	return out
}

// RefLDE is the oracle for LDE: zero-pad by the blowup, coset-transform,
// bit-reverse the output order.
func RefLDE(coeffs []field.Element, blowupBits int, shift field.Element) []field.Element {
	padded := make([]field.Element, len(coeffs)<<blowupBits)
	copy(padded, coeffs)
	out := RefCosetForwardNN(padded, shift)
	BitReversePermute(out)
	return out
}
