package faultinject

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"unizk/internal/jobs"
)

// TestCancellationChaos cancels proofs at seeded random points mid-prove
// and pins the pool's cancellation contract under chaos:
//
//   - a canceled prove returns (nil, context.Canceled) — never a partial
//     or corrupted proof;
//   - a prove that wins the race returns the full proof, bit-identical
//     to an uncanceled run;
//   - the shared worker pool leaks no goroutines however the races land.
//
// This is the prover-side complement of the netchaos soak: the network
// harness proves retries never duplicate work, this proves cancellation
// never tears work.
func TestCancellationChaos(t *testing.T) {
	reqs := []*jobs.Request{
		{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5},
		{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5},
	}
	// Reference proofs from unhindered runs.
	refs := make([][]byte, len(reqs))
	for i, req := range reqs {
		res, err := proveDirect(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res.Proof
	}

	before := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(20250806))
	const rounds = 24
	canceled, completed := 0, 0
	for round := 0; round < rounds; round++ {
		req := reqs[round%len(reqs)]
		ref := refs[round%len(reqs)]

		ctx, cancel := context.WithCancel(context.Background())
		// Cancel at a seeded random point inside the prove's lifetime;
		// early points tend to cancel, late ones tend to complete.
		delay := time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
		timer := time.AfterFunc(delay, cancel)

		res, err := proveDirect(ctx, req)
		timer.Stop()
		cancel()

		switch {
		case err == nil:
			completed++
			if res == nil || !bytes.Equal(res.Proof, ref) {
				t.Fatalf("round %d: completed prove differs from reference", round)
			}
		case errors.Is(err, context.Canceled):
			canceled++
			if res != nil {
				t.Fatalf("round %d: canceled prove returned a result (%d proof bytes)",
					round, len(res.Proof))
			}
		default:
			t.Fatalf("round %d: prove returned unclassified error: %v", round, err)
		}
	}
	t.Logf("cancellation chaos: %d canceled, %d completed over %d rounds", canceled, completed, rounds)
	if canceled == 0 {
		t.Fatal("no round was canceled; the chaos window is too late to test cancellation")
	}

	// The shared pool's workers are long-lived by design; what must not
	// happen is growth — per-prove goroutines stranded by a cancel.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines grew after cancellation chaos: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And the pool still proves correctly after the chaos.
	for i, req := range reqs {
		res, err := proveDirect(context.Background(), req)
		if err != nil {
			t.Fatalf("post-chaos prove: %v", err)
		}
		if !bytes.Equal(res.Proof, refs[i]) {
			t.Fatal("post-chaos proof differs from reference")
		}
	}
}

// proveDirect compiles and proves req outside any service: the proof a
// served one is held against.
func proveDirect(ctx context.Context, req *jobs.Request) (*jobs.Result, error) {
	j, err := jobs.Compile(req)
	if err != nil {
		return nil, err
	}
	return j.Prove(ctx)
}
