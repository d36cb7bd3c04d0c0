package proofcache

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"unizk/internal/jobs"
	"unizk/internal/prooferr"
)

// TestRegistryBitIdenticalToDirect proves the same request through the
// registry (derived job) and through a fresh Compile, for both kinds,
// and requires byte-identical proofs — the property that makes the
// registry (and the proof cache above it) transparent to clients.
func TestRegistryBitIdenticalToDirect(t *testing.T) {
	r := NewRegistry(0)
	ctx := context.Background()
	reqs := []*jobs.Request{
		{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5},
		{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5},
	}
	for _, req := range reqs {
		direct, err := jobs.Execute(ctx, req)
		if err != nil {
			t.Fatalf("%s direct: %v", req.Kind, err)
		}
		for i := 0; i < 2; i++ { // second pass exercises the hit path
			j, err := r.JobFor(req)
			if err != nil {
				t.Fatalf("%s JobFor: %v", req.Kind, err)
			}
			res, err := j.Prove(ctx)
			if err != nil {
				t.Fatalf("%s derived prove: %v", req.Kind, err)
			}
			if !bytes.Equal(res.Proof, direct.Proof) {
				t.Fatalf("%s pass %d: registry proof differs from direct prove", req.Kind, i)
			}
			if err := j.Check(res); err != nil {
				t.Fatalf("%s derived check: %v", req.Kind, err)
			}
		}
	}
	st := r.Stats()
	if st.Compiles != 2 || st.Hits != 2 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 compiles, 2 hits, 2 misses, 2 entries", st)
	}
}

// TestRegistryConcurrentPlonkReuse is the witness-cloning race check:
// many derived plonk jobs from one shared base prove concurrently under
// -race, on circuits of one, four and wide (MVM) gates per row. Each
// derived job clones the witness, so the generator writes that proving
// performs never touch shared state: after the derived jobs, the shared
// base itself proves, and one derived job proves a second time, and
// every proof is byte-equal to jobs.Execute's.
func TestRegistryConcurrentPlonkReuse(t *testing.T) {
	ctx := context.Background()
	for _, req := range []*jobs.Request{
		{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5},
		{Kind: jobs.KindPlonk, Workload: "MVM", LogRows: 4},
		{Kind: jobs.KindPlonk, Workload: "Image Crop", LogRows: 5},
	} {
		t.Run(req.Workload, func(t *testing.T) {
			r := NewRegistry(0)
			direct, err := jobs.Execute(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			const provers = 4
			var wg sync.WaitGroup
			derived := make([]*jobs.Job, provers)
			errs := make([]error, provers)
			for i := 0; i < provers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					j, err := r.JobFor(req)
					if err != nil {
						errs[i] = err
						return
					}
					derived[i] = j
					res, err := j.Prove(ctx)
					if err != nil {
						errs[i] = err
						return
					}
					if !bytes.Equal(res.Proof, direct.Proof) {
						errs[i] = errors.New("concurrent derived proof differs from direct prove")
					}
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("prover %d: %v", i, err)
				}
			}

			r.mu.Lock()
			base := r.entries[CircuitKey{Kind: req.Kind, Workload: req.Workload, LogRows: req.LogRows}].base
			r.mu.Unlock()
			for _, again := range []struct {
				name string
				job  *jobs.Job
			}{{"shared base", base}, {"derived job, second prove", derived[0]}} {
				res, err := again.job.Prove(ctx)
				if err != nil {
					t.Fatalf("%s: %v", again.name, err)
				}
				if !bytes.Equal(res.Proof, direct.Proof) {
					t.Fatalf("%s: proof differs from direct prove", again.name)
				}
			}
		})
	}
}

// TestRegistryStarkPayloadOverride checks that a payload-carrying stark
// request derived from the cached base decodes its own trace (never
// aliasing the base's generated columns) and still rejects malformed
// payloads with the right error class.
func TestRegistryStarkPayloadOverride(t *testing.T) {
	r := NewRegistry(0)
	base := &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 4}
	if _, err := r.JobFor(base); err != nil {
		t.Fatal(err)
	}
	bad := &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 4, Payload: []byte{0xff, 0xff}}
	if _, err := r.JobFor(bad); !errors.Is(err, prooferr.ErrMalformedProof) {
		t.Fatalf("garbage payload through registry = %v, want malformed", err)
	}
}

func TestRegistryValidatesAndBounds(t *testing.T) {
	r := NewRegistry(2)
	if _, err := r.JobFor(&jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 0}); !errors.Is(err, prooferr.ErrProofRejected) {
		t.Fatalf("invalid request = %v, want rejected", err)
	}
	if _, err := r.JobFor(&jobs.Request{Kind: jobs.KindStark, Workload: "nope", LogRows: 4}); !errors.Is(err, prooferr.ErrMalformedProof) {
		t.Fatalf("unknown workload = %v, want malformed", err)
	}
	for _, lr := range []int{3, 4, 5} {
		if _, err := r.JobFor(&jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: lr}); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Entries != 2 || st.Evicted != 1 {
		t.Fatalf("stats = %+v, want LRU bound of 2 with 1 eviction", st)
	}
}
