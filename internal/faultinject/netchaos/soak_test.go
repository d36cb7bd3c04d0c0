package netchaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/server"
	"unizk/internal/serverclient"
)

// TestChaosSoak is the acceptance scenario for the chaos-hardened
// service: N concurrent clients drive real proof jobs through a real
// server with faults injected on both sides of the wire — request
// resets, truncated responses, 503 blips, connection resets, latency —
// while every client retries through its retry policy under
// idempotency keys.
//
// Invariants pinned:
//   - every job eventually yields a proof bit-identical to a direct,
//     chaos-free prove of the same request;
//   - clients sharing an idempotency key converge on the same job and
//     identical proof bytes;
//   - the server's prover ran exactly once per unique admitted job —
//     retried submits never prove twice (ProveInvocations == unique ids);
//   - every error seen along the way is a classified, retryable one
//     (transport fault or retryable API error) — never an
//     unclassified failure, never a panic;
//   - after drain + close, the goroutine count settles: nothing leaks.
//
// The seed is fixed, so the fault schedule (up to goroutine
// interleaving) reproduces.
func TestChaosSoak(t *testing.T) {
	const (
		seed       = 20250806
		numClients = 5
		jobsEach   = 4
	)
	before := runtime.NumGoroutine()

	chaos := New(Config{
		Seed:            seed,
		AcceptDelayProb: 0.05,
		ConnDelayProb:   0.02,
		ConnResetProb:   0.01,
		MaxDelay:        2 * time.Millisecond,
		ReqResetProb:    0.10,
		TruncateProb:    0.10,
		BlipProb:        0.10,
	})

	s := server.New(server.Config{QueueCap: 64, MaxInFlight: 4})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener = chaos.WrapListener(ts.Listener)
	ts.Start()

	inner := &http.Transport{}
	rt := chaos.WrapTransport(inner)

	// The work matrix: per-client keys plus one request shared by every
	// client under one key, which must converge on a single job.
	shared := &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 4,
		IdempotencyKey: "soak-shared"}
	// Workloads every kind supports, so the matrix can mix kinds freely.
	workloads := []string{"Fibonacci", "Factorial", "SHA-256"}
	kinds := []jobs.Kind{jobs.KindPlonk, jobs.KindStark}
	request := func(client, n int) *jobs.Request {
		if n == 0 {
			return shared
		}
		return &jobs.Request{
			Kind:           kinds[(client+n)%len(kinds)],
			Workload:       workloads[(client*jobsEach+n)%len(workloads)],
			LogRows:        4 + n%2,
			IdempotencyKey: fmt.Sprintf("soak-c%d-n%d", client, n),
		}
	}

	type proven struct {
		req   *jobs.Request
		id    string
		proof []byte
	}
	results := make([][]proven, numClients)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	for ci := 0; ci < numClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := serverclient.New(ts.URL)
			c.HTTPClient = &http.Client{Transport: rt}
			c.Retry = &serverclient.RetryPolicy{
				MaxAttempts: 6,
				BaseDelay:   5 * time.Millisecond,
				MaxDelay:    100 * time.Millisecond,
				Seed:        seed + int64(ci) + 1,
			}

			for n := 0; n < jobsEach; n++ {
				req := request(ci, n)
				id, ok := soakSubmit(t, ctx, c, ci, n, req)
				if !ok {
					return
				}
				proof, ok := soakAwait(t, ctx, c, ci, n, id)
				if !ok {
					return
				}
				results[ci] = append(results[ci], proven{req: req, id: id, proof: proof})
			}
		}(ci)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every proof must be bit-identical to a chaos-free direct prove of
	// the same request, and same-id results must agree byte for byte.
	direct := map[string][]byte{}
	byID := map[string][]byte{}
	total := 0
	for ci, rs := range results {
		if len(rs) != jobsEach {
			t.Fatalf("client %d finished %d/%d jobs", ci, len(rs), jobsEach)
		}
		for _, r := range rs {
			total++
			sig := fmt.Sprintf("%s|%s|%d", r.req.Kind, r.req.Workload, r.req.LogRows)
			want, ok := direct[sig]
			if !ok {
				d, err := proveDirect(context.Background(), r.req)
				if err != nil {
					t.Fatalf("direct prove %s: %v", sig, err)
				}
				want = d.Proof
				direct[sig] = want
			}
			if !bytes.Equal(r.proof, want) {
				t.Fatalf("client %d job %s (%s): proof differs from direct prove", ci, r.id, sig)
			}
			if prev, ok := byID[r.id]; ok && !bytes.Equal(prev, r.proof) {
				t.Fatalf("job %s returned different proof bytes to different clients", r.id)
			}
			byID[r.id] = r.proof
		}
	}
	if total != numClients*jobsEach {
		t.Fatalf("completed %d jobs, want %d", total, numClients*jobsEach)
	}

	// The shared key converged on one job across all clients.
	sharedIDs := map[string]bool{}
	for _, rs := range results {
		sharedIDs[rs[0].id] = true
	}
	if len(sharedIDs) != 1 {
		t.Fatalf("shared idempotency key mapped to %d jobs: %v", len(sharedIDs), sharedIDs)
	}

	// The core no-duplicate-proving invariant: the prover entered
	// exactly once per unique admitted job, no matter how many retries
	// and replays the chaos caused.
	m := s.Metrics()
	if m.ProveInvocations != int64(len(byID)) {
		t.Fatalf("prove invocations = %d, unique jobs = %d — retries re-proved",
			m.ProveInvocations, len(byID))
	}
	if m.IdempotentHits == 0 {
		t.Fatalf("no idempotent hits in the whole soak (metrics %+v) — chaos too weak to test dedup", m)
	}
	if st := chaos.Stats(); st.Total() == 0 {
		t.Fatalf("chaos injected no faults; the soak proved nothing")
	} else {
		t.Logf("chaos: %+v", st)
		t.Logf("server: unique jobs %d, idempotent hits %d, prove invocations %d",
			len(byID), m.IdempotentHits, m.ProveInvocations)
	}

	// Drain, close, and require the goroutine count to settle.
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	ts.Close()
	inner.CloseIdleConnections()
	settleGoroutines(t, before)
}

// soakSubmit retries a submission until it is admitted (or attached to
// an existing job). Any non-retryable error is a bug and fails the
// test.
func soakSubmit(t *testing.T, ctx context.Context, c *serverclient.Client, ci, n int, req *jobs.Request) (string, bool) {
	for attempt := 0; ; attempt++ {
		reply, err := c.SubmitDetail(ctx, req, serverclient.Options{})
		if err == nil {
			return reply.ID, true
		}
		if !soakRetryable(err) {
			t.Errorf("client %d job %d: submit failed with unclassified/terminal error: %v", ci, n, err)
			return "", false
		}
		select {
		case <-ctx.Done():
			t.Errorf("client %d job %d: soak deadline during submit (last: %v)", ci, n, err)
			return "", false
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// soakAwait retries status/result polling until the proof arrives.
func soakAwait(t *testing.T, ctx context.Context, c *serverclient.Client, ci, n int, id string) ([]byte, bool) {
	for {
		res, err := c.Wait(ctx, id)
		if err == nil {
			return res.Proof, true
		}
		if !soakRetryable(err) {
			t.Errorf("client %d job %d (%s): wait failed with unclassified/terminal error: %v", ci, n, id, err)
			return nil, false
		}
		select {
		case <-ctx.Done():
			t.Errorf("client %d job %d (%s): soak deadline during wait (last: %v)", ci, n, id, err)
			return nil, false
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// soakRetryable is the test-level classification: everything the chaos
// can legitimately cause must land in one of these buckets. Anything
// else — a 400, a 409 conflict, a 500, an unwrapped error — fails the
// soak.
func soakRetryable(err error) bool {
	var te *serverclient.TransportError
	if errors.As(err, &te) {
		return true
	}
	var ae *serverclient.APIError
	return errors.As(err, &ae) && serverclient.Retryable(ae.StatusCode)
}

// settleGoroutines waits for the goroutine count to return near its
// pre-soak level; a leaked runner, watcher, or poller fails here.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
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
