//go:build !amd64 || purego

package field

// AVX512 is false off amd64 and under the purego tag: the portable
// kernels run.
const AVX512 = false
