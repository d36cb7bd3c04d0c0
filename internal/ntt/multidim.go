package ntt

import (
	"context"

	"unizk/internal/field"
	"unizk/internal/parallel"
)

// Multi-dimensional NTT decomposition (SAM, paper §5.1): an NTT of variable
// size N is decomposed into k dimensions of small fixed-size NTTs that match
// the hardware pipeline size, with element-wise inter-dimension twiddle
// multiplications between dimensions. UniZK instantiates n = 2^5 per
// pipeline; this package implements the math generically so the hardware
// mapping can be validated against the direct transform.
//
// The software schedule is the cache-blocked six-step form: transpose the
// n2×n1 input so each inner transform is a contiguous row, run the inner
// transforms, transpose back with the inter-dimension twiddles fused into
// the gather (one pass instead of a twiddle sweep plus a transpose), run
// the outer transforms on contiguous rows, and transpose into the output
// index order. Transposes move 32×32 tiles — 8 KiB read plus 8 KiB
// written, both L1-resident — so every step streams contiguous memory.
// Field arithmetic is exact, so the result is the canonical transform,
// bit-identical to ForwardNN.

// tileDim is the transpose tile edge: a 32×32 tile of 8-byte elements is
// 8 KiB, so source and destination tiles fit L1 together.
const tileDim = 32

// HardwareDims splits a size-2^logN transform into dimensions of at most
// 2^logn each, the way the accelerator's fixed pipelines require. The
// leading dimension absorbs the remainder so that the product is exact.
func HardwareDims(logN, logn int) []int {
	if logn <= 0 {
		panic("ntt: pipeline size must be positive")
	}
	var dims []int
	rem := logN
	for rem > 0 {
		d := logn
		if rem < logn {
			d = rem
		}
		dims = append(dims, 1<<d)
		rem -= d
	}
	if len(dims) == 0 {
		dims = []int{1}
	}
	return dims
}

func checkDims(data []field.Element, dims []int) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	if n != len(data) {
		panic("ntt: dims product must equal data length")
	}
}

// MultiDimForwardNN computes the natural-order NTT of data via the
// decomposition dims (whose product must equal len(data)), returning a new
// slice. Index convention: input index j = j1 + N1·j2 with j1 the first
// dimension's digit; output index k = k2 + N2·k1. The schedule mirrors the
// hardware: inner-dimension NTTs, inter-dimension twiddles (generated
// on-the-fly by the twiddle factor generator in hardware), outer NTT, with
// the data transposes between pipelines handled by the transpose buffer.
func MultiDimForwardNN(data []field.Element, dims []int) []field.Element {
	checkDims(data, dims)
	out := make([]field.Element, len(data))
	copy(out, data)
	multiDimInPlace(out, dims)
	return out
}

// multiDimInPlace is the six-step core: it transforms data in place via
// the first dimension split n1 × n2, recursing on the inner n2-sized
// transforms with the remaining dimensions.
func multiDimInPlace(data []field.Element, dims []int) {
	total := len(data)
	if len(dims) == 1 {
		smallNN(data)
		return
	}
	n1 := dims[0]
	n2 := total / n1
	roots := rootTable(Log2(total))

	// Step 1: transpose the n2×n1 input (data[j2*n1+j1]) so each inner
	// transform is the contiguous row cols[j1*n2 : (j1+1)*n2].
	colp := getBuf(total)
	cols := *colp
	transposeTiled(cols, data, n2, n1)

	// Step 2: inner transforms — in hardware the first half-array,
	// streaming columns back to back; here rows fan across the pool.
	parallel.Must(parallel.For(context.Background(), n1, 1, func(lo, hi int) {
		for j1 := lo; j1 < hi; j1++ {
			multiDimInPlace(cols[j1*n2:(j1+1)*n2], dims[1:])
		}
	}))

	// Steps 3+4: inter-dimension twiddles w_total^(j1·k2) fused into the
	// transpose back, so the twiddled matrix lands row-major in k2.
	rowp := getBuf(total)
	rows := *rowp
	transposeTwiddleTiled(rows, cols, n1, n2, roots, total)
	putBuf(colp)

	// Step 5: outer transforms — the second half-array after the
	// transpose buffer — again on contiguous rows.
	parallel.Must(parallel.For(context.Background(), n2, 16, func(lo, hi int) {
		for k2 := lo; k2 < hi; k2++ {
			smallNN(rows[k2*n1 : (k2+1)*n1])
		}
	}))

	// Step 6: transpose into the output convention k = k2 + n2·k1.
	transposeTiled(data, rows, n2, n1)
	putBuf(rowp)
}

// transposeTiled writes dst[c*rows+r] = src[r*cols+c] for an src matrix
// of rows×cols, walking 32×32 tiles so both matrices stay cache-resident
// within a tile. Large matrices fan tile row-bands across the pool; each
// band writes a disjoint set of destination tiles.
func transposeTiled(dst, src []field.Element, rows, cols int) {
	if rows*cols < parallelMin {
		transposeBand(dst, src, rows, cols, 0, rows)
		return
	}
	nBands := (rows + tileDim - 1) / tileDim
	parallel.Must(parallel.For(context.Background(), nBands, 1, func(lo, hi int) {
		for band := lo; band < hi; band++ {
			r0 := band * tileDim
			r1 := min(r0+tileDim, rows)
			transposeBand(dst, src, rows, cols, r0, r1)
		}
	}))
}

//unizklint:hotpath
func transposeBand(dst, src []field.Element, rows, cols, r0, r1 int) {
	for c0 := 0; c0 < cols; c0 += tileDim {
		c1 := min(c0+tileDim, cols)
		for r := r0; r < r1; r++ {
			for c := c0; c < c1; c++ {
				dst[c*rows+r] = src[r*cols+c]
			}
		}
	}
}

// transposeTwiddleTiled writes dst[k2*n1+j1] = src[j1*n2+k2]·w^(j1·k2)
// for the n1×n2 matrix src, with w the order-n root whose half-table is
// roots. Within a tile row the twiddle walks by a single multiply per
// element (acc·w^j1 steps k2 by one); the per-row seed w^(j1·c0) comes
// from the table, so each element costs one extra multiply over a plain
// transpose.
func transposeTwiddleTiled(dst, src []field.Element, n1, n2 int, roots []field.Element, n int) {
	if n < parallelMin {
		twiddleBand(dst, src, n1, n2, roots, n, 0, n1)
		return
	}
	nBands := (n1 + tileDim - 1) / tileDim
	parallel.Must(parallel.For(context.Background(), nBands, 1, func(lo, hi int) {
		for band := lo; band < hi; band++ {
			r0 := band * tileDim
			r1 := min(r0+tileDim, n1)
			twiddleBand(dst, src, n1, n2, roots, n, r0, r1)
		}
	}))
}

//unizklint:hotpath
func twiddleBand(dst, src []field.Element, n1, n2 int, roots []field.Element, n, r0, r1 int) {
	for c0 := 0; c0 < n2; c0 += tileDim {
		c1 := min(c0+tileDim, n2)
		for j1 := r0; j1 < r1; j1++ {
			wj := rootPower(roots, n, j1)
			acc := rootPower(roots, n, j1*c0%n)
			for k2 := c0; k2 < c1; k2++ {
				dst[k2*n1+j1] = field.Mul(src[j1*n2+k2], acc)
				acc = field.Mul(acc, wj)
			}
		}
	}
}

// smallNN applies the direct size-n forward transform in natural order.
//
//unizklint:hotpath
func smallNN(data []field.Element) {
	difCore(data, layerTable(Log2(len(data)), false))
	BitReversePermute(data)
}

// rootPower looks up w^e where parent holds w^0..w^(n/2-1) for order n.
// Exponents are reduced mod n; the upper half uses w^(e) = -w^(e-n/2).
//
//unizklint:hotpath
func rootPower(parent []field.Element, n, e int) field.Element {
	e %= n
	if e < n/2 {
		if e == 0 {
			return field.One
		}
		return parent[e]
	}
	if e == n/2 {
		return field.Neg(field.One)
	}
	return field.Neg(parent[e-n/2])
}
