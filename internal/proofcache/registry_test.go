package proofcache

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

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
		direct, err := proveDirect(ctx, req)
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
// every proof is byte-equal to proveDirect's.
func TestRegistryConcurrentPlonkReuse(t *testing.T) {
	ctx := context.Background()
	for _, req := range []*jobs.Request{
		{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5},
		{Kind: jobs.KindPlonk, Workload: "MVM", LogRows: 4},
		{Kind: jobs.KindPlonk, Workload: "Image Crop", LogRows: 5},
	} {
		t.Run(req.Workload, func(t *testing.T) {
			r := NewRegistry(0)
			direct, err := proveDirect(ctx, req)
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
			base, _ := r.bases.Peek(CircuitKey{Kind: req.Kind, Workload: req.Workload, LogRows: req.LogRows})
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
	r := NewRegistry(1) // smaller than any circuit: nothing is kept
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
	if st := r.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Compiles != 4 || st.Evicted != 0 {
		t.Fatalf("stats = %+v, want 4 compiles (one failed) and nothing kept under a 1-byte budget", st)
	}
}

// TestRegistryByteBudget pins the byte bound and the order bases stay
// in: a base that needs room evicts only bases worth less per byte
// (request count × compile cost ÷ ResidentBytes), least worth first, and
// is otherwise declined; a base larger than the whole budget serves its
// request without being registered; and Stats' entries and bytes agree
// with what is held. Compile costs are injected as a cost per byte of
// each size, so a base's worth per byte is its count × that cost.
func TestRegistryByteBudget(t *testing.T) {
	req := func(logRows int) *jobs.Request {
		return &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: logRows}
	}
	size := func(logRows int) int64 {
		j, err := jobs.Compile(req(logRows))
		if err != nil {
			t.Fatal(err)
		}
		return j.ResidentBytes()
	}
	s3, s4, s5 := size(3), size(4), size(5)
	budget := s3 + s5
	registry := func(perByte map[int]int64) *Registry {
		r := NewRegistry(budget)
		r.compileCost = func(k CircuitKey) time.Duration {
			return time.Duration(perByte[k.LogRows] * size(k.LogRows))
		}
		return r
	}
	get := func(r *Registry, logRows int) {
		t.Helper()
		if _, err := r.JobFor(req(logRows)); err != nil {
			t.Fatal(err)
		}
	}
	agree := func(r *Registry, want map[int]int64) RegistryStats {
		t.Helper()
		got, sum := map[int]int64{}, int64(0)
		r.mu.Lock()
		for _, lr := range []int{3, 4, 5, 9} {
			if base, ok := r.bases.Peek(CircuitKey{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: lr}); ok {
				got[lr] = base.ResidentBytes()
				sum += got[lr]
			}
		}
		r.mu.Unlock()
		st := r.Stats()
		if len(got) != len(want) || st.Entries != len(got) || st.Bytes != sum || sum > budget {
			t.Fatalf("held %v (stats %+v), want %v within a budget of %d bytes", got, st, want, budget)
		}
		for lr, b := range want {
			if got[lr] != b {
				t.Fatalf("held %v, want %v", got, want)
			}
		}
		return st
	}

	r := registry(map[int]int64{3: 1, 4: 1, 5: 4})
	get(r, 3)
	get(r, 4)
	get(r, 3) // 2^3 is worth 2 per byte, 2^4 is worth 1
	agree(r, map[int]int64{3: s3, 4: s4})
	get(r, 5) // worth 4, over budget by s4: evicts 2^4 only
	st := agree(r, map[int]int64{3: s3, 5: s5})
	if st.Evicted != 1 || st.Compiles != 3 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 eviction, 3 compiles, 1 hit", st)
	}
	get(r, 3)
	get(r, 4) // compiles again, worth 2, less than 2^3's 3: declined
	st = agree(r, map[int]int64{3: s3, 5: s5})
	if st.Evicted != 1 || st.Compiles != 4 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 4 compiles, 2 hits", st)
	}

	// A base larger than the whole budget proves its request and is
	// dropped; the registered ones stay.
	big := req(9)
	if size(9) <= budget {
		t.Fatalf("2^9 base weighs %d bytes, want more than the %d-byte budget", size(9), budget)
	}
	for i := 0; i < 2; i++ {
		j, err := r.JobFor(big)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Prove(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Check(res); err != nil {
			t.Fatal(err)
		}
	}
	st = agree(r, map[int]int64{3: s3, 5: s5})
	if st.Evicted != 1 || st.Compiles != 6 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want the oversized base compiled per request, never registered", st)
	}

	// The small base costly to compile outlives the large cheap one,
	// though it is the less recently used: 2^4 needs room and evicts
	// 2^5, worth 2 per byte, before 2^3, worth 1000.
	r = registry(map[int]int64{3: 1000, 4: 10, 5: 1})
	get(r, 3)
	get(r, 5)
	get(r, 5)
	get(r, 4)
	if st := agree(r, map[int]int64{3: s3, 4: s4}); st.Evicted != 1 {
		t.Fatalf("stats = %+v, want 1 eviction", st)
	}
}

// BenchmarkRegistryMiss prices the registry on traffic that never
// repeats a circuit: every lookup misses, so each op pays Compile plus
// the registry's own work (ResidentBytes, the insert, ReuseFor's
// witness clone). Compare the miss sub-benchmark with compile, which is
// jobs.Compile alone; the two should be within noise.
func BenchmarkRegistryMiss(b *testing.B) {
	for _, req := range []*jobs.Request{
		{Kind: jobs.KindPlonk, Workload: "MVM", LogRows: 4},
		{Kind: jobs.KindStark, Workload: "SHA-256", LogRows: 6},
	} {
		name := req.Kind.String() + "/" + req.Workload
		b.Run(name+"/compile", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := jobs.Compile(req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/miss", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewRegistry(0).JobFor(req); err != nil {
					b.Fatal(err)
				}
			}
		})
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
