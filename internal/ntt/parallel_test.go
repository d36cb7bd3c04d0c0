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
// byte-identical to the one-worker execution.
func TestTransformsSerialVsParallel(t *testing.T) {
	restoreParallel(t)
	ctx := context.Background()
	for _, s := range allSpecs() {
		for _, n := range diffSizes {
			rng := rand.New(rand.NewSource(int64(n)))
			input := randVec(rng, n)

			parallel.SetWorkers(1)
			ref := clone(input)
			if err := Transform(ctx, ref, s); err != nil {
				t.Fatalf("%+v n=%d serial: %v", s, n, err)
			}

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
	defer parallel.SetWorkers(prev)

	for _, n := range diffSizes {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		coeffs := randVec(rng, n)

		parallel.SetWorkers(1)
		ref := LDE(coeffs, 2, field.MultiplicativeGenerator)

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
