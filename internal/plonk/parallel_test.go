package plonk

import (
	"bytes"
	"runtime"
	"testing"

	"unizk/internal/field"
	"unizk/internal/parallel"
)

// proveBytes runs the full prover and returns the serialized proof.
func proveBytes(t *testing.T, workers int) []byte {
	t.Helper()
	parallel.SetWorkers(workers)

	c, xs, out := paperCircuit()
	w := c.NewWitness()
	w.Set(xs[0], field.New(2))
	w.Set(xs[1], field.New(1))
	w.Set(xs[2], field.New(3))
	w.Set(xs[3], field.New(11))
	w.Set(out, field.New(99))
	proof, err := c.Prove(w, nil)
	if err != nil {
		t.Fatalf("prove (workers=%d): %v", workers, err)
	}
	if err := Verify(c.VerificationKey(), []field.Element{field.New(99)}, proof); err != nil {
		t.Fatalf("verify (workers=%d): %v", workers, err)
	}
	b, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestProveParallelDeterministic is the end-to-end Plonk differential
// test: the serialized proof — every cap, opening, FRI round, and PoW
// witness, all downstream of the Fiat–Shamir transcript — must be
// byte-identical between the one-worker run and every worker count.
func TestProveParallelDeterministic(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)

	ref := proveBytes(t, 1)
	for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
		if got := proveBytes(t, workers); !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d: proof bytes differ from serial execution", workers)
		}
	}
}
