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

// DIF8Vec runs the last three layers of a decimation-in-frequency
// transform (spans 8, 4 and 2) on every block of eight of data, whose
// length must be a multiple of eight. w is the span-8 root table
// w^0..w^3; w^2 is also the span-4 root. The butterflies whose twiddle
// is 1 skip the multiply, which leaves five multiplies per block instead
// of twelve. Where the host has AVX-512F, each run of eight blocks is
// transposed in registers so that one lane holds one block, and the
// blocks after the last whole run take the scalar loop.
//
//unizklint:hotpath
func DIF8Vec(data, w []Element) {
	w1, w2, w3 := w[1], w[2], w[3]
	for base := dif8VecX8(data, w1, w2, w3); base+8 <= len(data); base += 8 {
		x := (*[8]Element)(data[base : base+8])
		// span 8
		a0, b0 := Add(x[0], x[4]), Sub(x[0], x[4])
		a1, b1 := Add(x[1], x[5]), Mul(Sub(x[1], x[5]), w1)
		a2, b2 := Add(x[2], x[6]), Mul(Sub(x[2], x[6]), w2)
		a3, b3 := Add(x[3], x[7]), Mul(Sub(x[3], x[7]), w3)
		// span 4
		c0, c2 := Add(a0, a2), Sub(a0, a2)
		c1, c3 := Add(a1, a3), Mul(Sub(a1, a3), w2)
		d0, d2 := Add(b0, b2), Sub(b0, b2)
		d1, d3 := Add(b1, b3), Mul(Sub(b1, b3), w2)
		// span 2
		x[0], x[1] = Add(c0, c1), Sub(c0, c1)
		x[2], x[3] = Add(c2, c3), Sub(c2, c3)
		x[4], x[5] = Add(d0, d1), Sub(d0, d1)
		x[6], x[7] = Add(d2, d3), Sub(d2, d3)
	}
}
