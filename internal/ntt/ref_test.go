package ntt

import (
	"math"
	"math/rand"
	"testing"

	"unizk/internal/field"
	"unizk/internal/parallel"
)

// Differential layer: every optimized transform against the O(n²) DFT
// oracles in ntt_ref.go, over edge vectors and fuzzed inputs, in forced
// serial mode and through the worker pool. Sizes straddle parallelMin
// and the cache-block threshold so the serial cores, the pool-parallel
// layers, and the blocked tail/head passes are all pinned to the oracle.

// oracleSizes is the full-matrix grid; oracle cost is quadratic, so the
// largest sizes get a reduced sweep below.
var oracleSizes = []int{1, 2, 4, 16, 64, 256, 1 << 10}

// blockedSizes exercise the cache-blocked difCoreCtx/ditCoreCtx paths
// (n ≥ parallelMin), where the trailing layers run per-block over the
// canonical sub-table.
var blockedSizes = []int{1 << 11, 1 << 12}

// refEdgeVectors are adversarial size-n inputs: zeros, ones, a lone
// impulse at the last slot, everything saturated at p-1, and a seeded
// random vector.
func refEdgeVectors(rng *rand.Rand, n int) [][]field.Element {
	zeros := make([]field.Element, n)
	ones := make([]field.Element, n)
	impulse := make([]field.Element, n)
	sat := make([]field.Element, n)
	for i := 0; i < n; i++ {
		ones[i] = field.One
		sat[i] = field.Element(field.Order - 1)
	}
	impulse[n-1] = field.New(rng.Uint64())
	return [][]field.Element{zeros, ones, impulse, sat, randVec(rng, n)}
}

// refTransformCases pairs each in-place kernel with its oracle.
var refTransformCases = []struct {
	name   string
	fn     func([]field.Element)
	oracle func([]field.Element) []field.Element
}{
	{"ForwardNN", ForwardNN, RefForwardNN},
	{"ForwardNR", ForwardNR, RefForwardNR},
	{"ForwardRN", ForwardRN, func(in []field.Element) []field.Element {
		nat := clone(in)
		BitReversePermute(nat) // RN input is bit-reversed: recover natural order
		return RefForwardNN(nat)
	}},
	{"InverseNN", InverseNN, RefInverseNN},
	{"InverseNR", InverseNR, func(in []field.Element) []field.Element {
		out := RefInverseNN(in)
		BitReversePermute(out)
		return out
	}},
	{"InverseRN", InverseRN, func(in []field.Element) []field.Element {
		nat := clone(in)
		BitReversePermute(nat)
		return RefInverseNN(nat)
	}},
	{"CosetForwardNN", func(d []field.Element) { CosetForwardNN(d, field.MultiplicativeGenerator) },
		func(in []field.Element) []field.Element {
			return RefCosetForwardNN(in, field.MultiplicativeGenerator)
		}},
	{"CosetForwardNR", func(d []field.Element) { CosetForwardNR(d, field.MultiplicativeGenerator) },
		func(in []field.Element) []field.Element {
			out := RefCosetForwardNN(in, field.MultiplicativeGenerator)
			BitReversePermute(out)
			return out
		}},
	{"CosetInverseNN", func(d []field.Element) { CosetInverseNN(d, field.MultiplicativeGenerator) },
		func(in []field.Element) []field.Element {
			return RefCosetInverseNN(in, field.MultiplicativeGenerator)
		}},
}

// runRefCase checks one kernel against its oracle on one input, in
// forced-serial mode and through the pool at a couple of worker counts.
func runRefCase(t *testing.T, name string, fn func([]field.Element), want, input []field.Element, n int) {
	t.Helper()
	check := func(mode string) {
		got := clone(input)
		fn(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s n=%d %s: index %d = %#x, want %#x", name, n, mode, i, got[i], want[i])
			}
		}
	}
	parallel.SetSerial(true)
	check("serial")
	parallel.SetSerial(false)
	for _, workers := range []int{2, 7} {
		parallel.SetWorkers(workers)
		check("parallel")
	}
}

func restoreParallel(t *testing.T) {
	prevWorkers := parallel.Workers()
	prevSerial := parallel.SerialMode()
	t.Cleanup(func() {
		parallel.SetSerial(prevSerial)
		parallel.SetWorkers(prevWorkers)
	})
}

// TestRefTransforms is the full oracle matrix at small-to-medium sizes.
func TestRefTransforms(t *testing.T) {
	restoreParallel(t)
	for _, n := range oracleSizes {
		rng := rand.New(rand.NewSource(int64(n) * 7919))
		vectors := refEdgeVectors(rng, n)
		if testing.Short() && n > 256 {
			vectors = vectors[len(vectors)-1:] // random vector only
		}
		for vi, input := range vectors {
			for _, tc := range refTransformCases {
				want := tc.oracle(input)
				runRefCase(t, tc.name, tc.fn, want, input, n)
				_ = vi
			}
		}
	}
}

// TestRefTransformsBlocked pins the cache-blocked core paths (sizes at
// and above parallelMin) to the oracle on a random vector.
func TestRefTransformsBlocked(t *testing.T) {
	if testing.Short() {
		t.Skip("quadratic oracle at blocked sizes")
	}
	restoreParallel(t)
	for _, n := range blockedSizes {
		rng := rand.New(rand.NewSource(int64(n) * 104729))
		input := randVec(rng, n)
		for _, tc := range refTransformCases {
			want := tc.oracle(input)
			runRefCase(t, tc.name, tc.fn, want, input, n)
		}
	}
}

// TestRefLDE pins the allocating LDE kernel, whose zero-padded coset
// transform rides the pooled buffers.
func TestRefLDE(t *testing.T) {
	restoreParallel(t)
	for _, n := range []int{1, 4, 64, 256, 1 << 10} {
		rng := rand.New(rand.NewSource(int64(n) + 31))
		coeffs := randVec(rng, n)
		for _, blowup := range []int{1, 2, 3} {
			want := RefLDE(coeffs, blowup, field.MultiplicativeGenerator)
			check := func(mode string) {
				got := LDE(coeffs, blowup, field.MultiplicativeGenerator)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("LDE n=%d blowup=%d %s: index %d = %#x, want %#x",
							n, blowup, mode, i, got[i], want[i])
					}
				}
			}
			parallel.SetSerial(true)
			check("serial")
			parallel.SetSerial(false)
			parallel.SetWorkers(2)
			check("parallel")
		}
	}
}

// TestRefMultiDim pins the six-step decomposition — tiled transposes,
// fused twiddles, pooled scratch — to the oracle across pipeline widths
// and both directions.
func TestRefMultiDim(t *testing.T) {
	restoreParallel(t)
	for _, logN := range []int{0, 1, 3, 5, 8, 10} {
		n := 1 << logN
		rng := rand.New(rand.NewSource(int64(logN) + 101))
		input := randVec(rng, n)
		wantF := RefForwardNN(input)
		wantI := RefInverseNN(input)
		for _, logn := range []int{1, 3, 5} {
			dims := HardwareDims(logN, logn)
			for _, serial := range []bool{true, false} {
				parallel.SetSerial(serial)
				gotF := MultiDimForwardNN(input, dims)
				gotI := MultiDimInverseNN(input, dims)
				for i := range wantF {
					if gotF[i] != wantF[i] {
						t.Fatalf("MultiDimForwardNN logN=%d logn=%d serial=%v: index %d differs",
							logN, logn, serial, i)
					}
					if gotI[i] != wantI[i] {
						t.Fatalf("MultiDimInverseNN logN=%d logn=%d serial=%v: index %d differs",
							logN, logn, serial, i)
					}
				}
			}
		}
	}
}

// TestRefBitReverse pins BitReverse to the one-bit-per-iteration loop for
// every width 0..32, on edge values (zero, all ones, lone high and low
// bits, values with bits above the width, negatives) and random values.
func TestRefBitReverse(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for nbits := 0; nbits <= 32; nbits++ {
		xs := []int{0, 1, -1, 2, 1<<nbits - 1, 1 << nbits, 1<<nbits | 1, 0x5555_5555_5555, math.MaxInt, math.MinInt}
		if nbits > 0 {
			xs = append(xs, 1<<(nbits-1))
		}
		for range 64 {
			xs = append(xs, int(rng.Uint64()))
		}
		for _, x := range xs {
			if got, want := BitReverse(x, nbits), refBitReverse(x, nbits); got != want {
				t.Fatalf("BitReverse(%#x, %d) = %#x, want %#x", x, nbits, got, want)
			}
		}
	}
}

// TestRefCosetDomainBR pins the cached bit-reversed coset domain to
// first-principles points g·w^rev(j).
func TestRefCosetDomainBR(t *testing.T) {
	for _, logM := range []int{0, 1, 4, 9} {
		m := 1 << logM
		w := field.PrimitiveRootOfUnity(logM)
		got := CosetDomainBR(logM)
		if len(got) != m {
			t.Fatalf("CosetDomainBR(%d): len %d, want %d", logM, len(got), m)
		}
		for j := 0; j < m; j++ {
			want := field.Mul(field.MultiplicativeGenerator,
				field.Exp(w, uint64(BitReverse(j, logM))))
			if got[j] != want {
				t.Fatalf("CosetDomainBR(%d)[%d] = %#x, want %#x", logM, j, got[j], want)
			}
		}
	}
}
