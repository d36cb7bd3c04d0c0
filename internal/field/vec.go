package field

// The slice layer: element-wise kernels over equal-length vectors, the
// "poly" kernel class the paper maps onto the array's vector mode with
// chained multiply/add units (§5.4). Each kernel writes len(dst)
// elements and panics if an operand is shorter. dst may be one of the
// operands but must not partially overlap one. Where the host has
// AVX-512F the leading multiple of eight runs in vec_amd64.s, eight
// lanes at a time, and the tail takes the scalar loop; the outputs are
// canonical either way, so every path returns the same elements.

// AddVec sets dst[i] = a[i] + b[i].
//
//unizklint:hotpath
func AddVec(dst, a, b []Element) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := addVecX8(dst, a, b); i < len(dst); i++ {
		dst[i] = Add(a[i], b[i])
	}
}

// SubVec sets dst[i] = a[i] - b[i].
//
//unizklint:hotpath
func SubVec(dst, a, b []Element) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := subVecX8(dst, a, b); i < len(dst); i++ {
		dst[i] = Sub(a[i], b[i])
	}
}

// MulVec sets dst[i] = a[i]·b[i].
//
//unizklint:hotpath
func MulVec(dst, a, b []Element) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := mulVecX8(dst, a, b); i < len(dst); i++ {
		dst[i] = Mul(a[i], b[i])
	}
}

// MulAddVec sets dst[i] = a[i]·b[i] + c[i].
//
//unizklint:hotpath
func MulAddVec(dst, a, b, c []Element) {
	a, b, c = a[:len(dst)], b[:len(dst)], c[:len(dst)]
	for i := mulAddVecX8(dst, a, b, c); i < len(dst); i++ {
		dst[i] = MulAdd(a[i], b[i], c[i])
	}
}

// ScaleVec sets dst[i] = c·a[i].
//
//unizklint:hotpath
func ScaleVec(dst []Element, c Element, a []Element) {
	a = a[:len(dst)]
	for i := scaleVecX8(dst, c, a); i < len(dst); i++ {
		dst[i] = Mul(c, a[i])
	}
}

// ScaleAddVec sets dst[i] = c·a[i] + dst[i].
//
//unizklint:hotpath
func ScaleAddVec(dst []Element, c Element, a []Element) {
	a = a[:len(dst)]
	for i := scaleAddVecX8(dst, c, a); i < len(dst); i++ {
		dst[i] = MulAdd(c, a[i], dst[i])
	}
}

// ButterflyVec applies the DIF butterfly to every pair (x[i], y[i]) with
// twiddle w[i]: x[i], y[i] = x[i] + y[i], (x[i] - y[i])·w[i].
//
//unizklint:hotpath
func ButterflyVec(x, y, w []Element) {
	y, w = y[:len(x)], w[:len(x)]
	for i := butterflyVecX8(x, y, w); i < len(x); i++ {
		a, b := x[i], y[i]
		x[i] = Add(a, b)
		y[i] = Mul(Sub(a, b), w[i])
	}
}
