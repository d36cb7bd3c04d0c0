//go:build !purego

package field

// The eight-lane kernels of vec_amd64.s, one per slice kernel of vec.go.
// Each runs the leading multiple of eight of len(dst) (len(x) for the
// butterfly) elements, or none without AVX-512F, and returns how many
// it ran, leaving the tail to the caller's scalar loop. The callers have
// resliced every operand to that length.

//go:noescape
func addVecX8(dst, a, b []Element) int

//go:noescape
func subVecX8(dst, a, b []Element) int

//go:noescape
func mulVecX8(dst, a, b []Element) int

//go:noescape
func mulAddVecX8(dst, a, b, c []Element) int

//go:noescape
func scaleVecX8(dst []Element, c Element, a []Element) int

//go:noescape
func scaleAddVecX8(dst []Element, c Element, a []Element) int

//go:noescape
func butterflyVecX8(x, y, w []Element) int

// dif8VecX8 runs DIF8Vec on the leading multiple of 64 elements.
//
//go:noescape
func dif8VecX8(data []Element, w1, w2, w3 Element) int
