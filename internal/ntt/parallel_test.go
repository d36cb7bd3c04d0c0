package ntt

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"unizk/internal/field"
	"unizk/internal/parallel"
)

// workerSweep is the differential layer's worker-count table: the
// degenerate pool, a couple of real sizes, and whatever this machine has.
func workerSweep() []int {
	return []int{1, 2, 7, runtime.NumCPU()}
}

// diffSizes spans both sides of parallelMin so the serial fallback and
// the parallel butterfly path are each exercised.
var diffSizes = []int{1 << 4, 1 << 6, 1 << 8, 1 << 10, 1 << 11, 1 << 12}

// TestTransformsSerialVsParallel is the NTT differential test without
// the oracle: every Spec, across sizes and worker counts, must be
// byte-identical to the forced-serial execution.
func TestTransformsSerialVsParallel(t *testing.T) {
	restoreParallel(t)
	ctx := context.Background()
	for _, s := range allSpecs() {
		for _, n := range diffSizes {
			rng := rand.New(rand.NewSource(int64(n)))
			input := randVec(rng, n)

			parallel.SetSerial(true)
			ref := clone(input)
			if err := Transform(ctx, ref, s); err != nil {
				t.Fatalf("%+v n=%d serial: %v", s, n, err)
			}
			parallel.SetSerial(false)

			for _, workers := range workerSweep() {
				parallel.SetWorkers(workers)
				got := clone(input)
				if err := Transform(ctx, got, s); err != nil {
					t.Fatalf("%+v n=%d workers=%d: %v", s, n, workers, err)
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%+v n=%d workers=%d: index %d differs from serial",
							s, n, workers, i)
					}
				}
			}
		}
	}
}

// TestLDESerialVsParallel covers the allocating LDE kernel.
func TestLDESerialVsParallel(t *testing.T) {
	prev := parallel.Workers()
	defer func() { parallel.SetSerial(false); parallel.SetWorkers(prev) }()

	for _, n := range diffSizes {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		coeffs := randVec(rng, n)

		parallel.SetSerial(true)
		ref := LDE(coeffs, 2, field.MultiplicativeGenerator)
		parallel.SetSerial(false)

		for _, workers := range workerSweep() {
			parallel.SetWorkers(workers)
			got := LDE(coeffs, 2, field.MultiplicativeGenerator)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("LDE n=%d workers=%d: index %d differs from serial", n, workers, i)
				}
			}
		}
	}
}

// TestMultiDimSerialVsParallel covers the SAM-style multi-dimensional
// decomposition, whose inner and outer dimension loops both fan out.
func TestMultiDimSerialVsParallel(t *testing.T) {
	prev := parallel.Workers()
	defer func() { parallel.SetSerial(false); parallel.SetWorkers(prev) }()

	for _, logN := range []int{4, 6, 8, 10, 12} {
		n := 1 << logN
		rng := rand.New(rand.NewSource(int64(logN)))
		input := randVec(rng, n)
		dims := HardwareDims(logN, 3)

		parallel.SetSerial(true)
		ref := MultiDimForwardNN(input, dims)
		parallel.SetSerial(false)

		for _, workers := range workerSweep() {
			parallel.SetWorkers(workers)
			got := MultiDimForwardNN(input, dims)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("MultiDimForwardNN logN=%d workers=%d: index %d differs", logN, workers, i)
				}
			}
		}
	}
}
