package merkle

import (
	"math/rand"
	"runtime"
	"testing"

	"unizk/internal/parallel"
)

// TestBuildSerialVsParallel is the Merkle differential test: leaf
// absorption and level compression must produce identical trees — caps,
// internal digests, and opening proofs — whatever the worker count.
func TestBuildSerialVsParallel(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)

	for _, logN := range []int{4, 6, 8, 10, 12} {
		n := 1 << logN
		rng := rand.New(rand.NewSource(int64(logN)))
		leaves := randLeaves(rng, n, 5)
		capHeight := 2
		if logN < 3 {
			capHeight = 0
		}

		parallel.SetWorkers(1)
		ref := Build(leaves, capHeight)

		openAt := []int{0, 1, n / 2, n - 1}
		for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
			parallel.SetWorkers(workers)
			got := Build(leaves, capHeight)
			for i := range ref.Cap() {
				if got.Cap()[i] != ref.Cap()[i] {
					t.Fatalf("logN=%d workers=%d: cap digest %d differs from serial", logN, workers, i)
				}
			}
			for _, idx := range openAt {
				refProof, gotProof := ref.Open(idx), got.Open(idx)
				if len(refProof.Siblings) != len(gotProof.Siblings) {
					t.Fatalf("logN=%d workers=%d leaf %d: proof lengths differ", logN, workers, idx)
				}
				for s := range refProof.Siblings {
					if refProof.Siblings[s] != gotProof.Siblings[s] {
						t.Fatalf("logN=%d workers=%d leaf %d: sibling %d differs", logN, workers, idx, s)
					}
				}
			}
		}
	}
}
