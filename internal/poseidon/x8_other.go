//go:build !amd64 || purego

package poseidon

// permuteX8 runs eight independent permutations in place.
func permuteX8(x *lanesX8) { permuteX8Generic(x) }

// SIMD names the vector backend behind the batched permutation, or is
// empty when the portable loop runs.
func SIMD() string { return "" }

func initX8() {}
