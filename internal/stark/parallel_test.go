package stark

import (
	"bytes"
	"runtime"
	"testing"

	"unizk/internal/parallel"
)

// starkProveBytes runs the full Stark prover and returns the serialized
// proof.
func starkProveBytes(t *testing.T, logN, workers int) []byte {
	t.Helper()
	parallel.SetWorkers(workers)

	s, cols, _ := fibAIR(logN)
	proof, err := s.Prove(cols, nil)
	if err != nil {
		t.Fatalf("prove (logN=%d workers=%d): %v", logN, workers, err)
	}
	if err := s.Verify(proof); err != nil {
		t.Fatalf("verify (logN=%d workers=%d): %v", logN, workers, err)
	}
	b, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestProveParallelDeterministic is the end-to-end Stark differential
// test: serialized proofs must be byte-identical between the one-worker
// run and every worker count, for trace sizes on both sides of the NTT
// parallel threshold.
func TestProveParallelDeterministic(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)

	for _, logN := range []int{4, 7, 10} {
		ref := starkProveBytes(t, logN, 1)
		for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
			if got := starkProveBytes(t, logN, workers); !bytes.Equal(got, ref) {
				t.Fatalf("logN=%d workers=%d: proof bytes differ from serial execution", logN, workers)
			}
		}
	}
}
