//go:build !amd64 || purego

package field

// Without the assembly kernels every element takes the scalar loop.

func addVecX8(dst, a, b []Element) int { return 0 }

func subVecX8(dst, a, b []Element) int { return 0 }

func mulVecX8(dst, a, b []Element) int { return 0 }

func mulAddVecX8(dst, a, b, c []Element) int { return 0 }

func scaleVecX8(dst []Element, c Element, a []Element) int { return 0 }

func scaleAddVecX8(dst []Element, c Element, a []Element) int { return 0 }

func butterflyVecX8(x, y, w []Element) int { return 0 }

func dif8VecX8(data []Element, w1, w2, w3 Element) int { return 0 }
