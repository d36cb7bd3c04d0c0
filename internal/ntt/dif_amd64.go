//go:build !purego

package ntt

import "unizk/internal/field"

// The eight-lane kernels of dif_amd64.s. Each processes the leading
// multiple of eight elements and returns how many it ran, leaving the
// tail to the caller's scalar loop; each runs nothing without AVX-512F.

//go:noescape
func butterfliesAVX512(x, y, w *field.Element, n int)

//go:noescape
func mulAVX512(x, w *field.Element, n int)

//go:noescape
func mulConstAVX512(x *field.Element, c field.Element, n int)

func butterfliesX8(x, y, w []field.Element) int {
	n := len(x) &^ 7
	if !field.AVX512 || n == 0 {
		return 0
	}
	_, _ = y[n-1], w[n-1]
	butterfliesAVX512(&x[0], &y[0], &w[0], n)
	return n
}

func mulX8(x, w []field.Element) int {
	n := len(x) &^ 7
	if !field.AVX512 || n == 0 {
		return 0
	}
	_ = w[n-1]
	mulAVX512(&x[0], &w[0], n)
	return n
}

func mulConstX8(x []field.Element, c field.Element) int {
	n := len(x) &^ 7
	if !field.AVX512 || n == 0 {
		return 0
	}
	mulConstAVX512(&x[0], c, n)
	return n
}
