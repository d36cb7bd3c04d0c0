package faultinject

import (
	"bytes"
	"runtime"
	"testing"

	"unizk/internal/parallel"
)

// TestPristineProofsSerialVsParallel checks the harness's fixture proofs
// — full Plonk and Stark pipelines end to end — serialize to identical
// bytes whether the prover kernels run on one worker or on a multi-worker
// pool. This is the harness-level form of the bit-identity contract: the
// pristine proof the mutants are derived from must not depend on the
// machine's core count.
func TestPristineProofsSerialVsParallel(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)

	for _, build := range []struct {
		name string
		mk   func() (Target, error)
	}{
		{"plonk", PlonkTarget},
		{"stark", StarkTarget},
	} {
		parallel.SetWorkers(1)
		ref, err := build.mk()
		if err != nil {
			t.Fatalf("%s serial target: %v", build.name, err)
		}

		for _, workers := range []int{2, runtime.NumCPU()} {
			parallel.SetWorkers(workers)
			got, err := build.mk()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", build.name, workers, err)
			}
			if !bytes.Equal(got.Pristine, ref.Pristine) {
				t.Fatalf("%s workers=%d: pristine proof bytes differ from serial", build.name, workers)
			}
		}
	}
}
