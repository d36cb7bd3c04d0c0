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

	"unizk/internal/jobcore"
	"unizk/internal/jobs"
	"unizk/internal/server"
	"unizk/internal/serverclient"
	"unizk/internal/tenant"
)

// TestCacheSoak is the acceptance scenario for the content-addressed
// serving tier under chaos: K concurrent clients, each a *distinct*
// tenant (so the idempotency index cannot be what deduplicates), hammer
// the same small set of request contents through injected resets,
// truncations, and 503 blips — no idempotency keys anywhere.
//
// Invariants pinned:
//   - the prover ran exactly once per unique *content*, no matter how
//     many tenants, retries, or replays: the cache's Begin/coalesce
//     path absorbed everything else;
//   - every returned proof is bit-identical to a chaos-free direct
//     prove — cached and coalesced results are the real bytes;
//   - a deliberately starved tenant hits 429 rate_limited naming
//     itself, with a computed Retry-After, while the other tenants'
//     work is unaffected;
//   - cache and per-tenant counters in Metrics add up;
//   - after drain + close, the goroutine count settles: nothing leaks.
//
// Half the clients await via WaitStream (SSE with a plain polling
// fallback), so the fallback is exercised under the same faults.
func TestCacheSoak(t *testing.T) {
	const (
		seed       = 20250807
		numClients = 5
		numRepeats = 3 // times each client submits each content
	)
	before := runtime.NumGoroutine()

	chaos := New(Config{
		Seed:            seed,
		AcceptDelayProb: 0.05,
		ConnDelayProb:   0.02,
		ConnResetProb:   0.01,
		MaxDelay:        2 * time.Millisecond,
		ReqResetProb:    0.08,
		TruncateProb:    0.08,
		BlipProb:        0.08,
	})

	// One tenant per client plus a starved one whose bucket holds a
	// single token and effectively never refills.
	tcfgs := make([]tenant.Config, 0, numClients+1)
	for i := 0; i < numClients; i++ {
		tcfgs = append(tcfgs, tenant.Config{
			Name: fmt.Sprintf("t%d", i), Key: fmt.Sprintf("t%d-key", i),
		})
	}
	tcfgs = append(tcfgs, tenant.Config{
		Name: "starved", Key: "starved-key", Rate: 0.0001, Burst: 1,
	})
	reg, err := tenant.NewRegistry(tcfgs...)
	if err != nil {
		t.Fatal(err)
	}

	s := server.New(server.Config{
		QueueCap:    64,
		MaxInFlight: 4,
		Options: jobcore.Options{
			CacheEntries: 64,
			CacheVerify:  true,
			Tenants:      reg,
		},
	})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener = chaos.WrapListener(ts.Listener)
	ts.Start()

	inner := &http.Transport{}
	rt := chaos.WrapTransport(inner)

	// The shared content matrix: every client submits every content
	// numRepeats times, with NO idempotency keys — only the content
	// address can collapse this to one prove each.
	contents := []*jobs.Request{
		{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5},
		{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5},
		{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 4},
	}
	baseInv := s.Metrics().ProveInvocations

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	proofs := make([][][]byte, numClients) // [client][submission]
	var wg sync.WaitGroup
	for ci := 0; ci < numClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := serverclient.New(ts.URL)
			c.HTTPClient = &http.Client{Transport: rt}
			c.APIKey = fmt.Sprintf("t%d-key", ci)
			c.Retry = &serverclient.RetryPolicy{
				MaxAttempts: 6,
				BaseDelay:   5 * time.Millisecond,
				MaxDelay:    100 * time.Millisecond,
				Seed:        seed + int64(ci) + 1,
			}
			for rep := 0; rep < numRepeats; rep++ {
				for n, req := range contents {
					id, ok := soakSubmit(t, ctx, c, ci, n, req)
					if !ok {
						return
					}
					var proof []byte
					if ci%2 == 0 {
						proof, ok = soakAwait(t, ctx, c, ci, n, id)
					} else {
						proof, ok = soakAwaitStream(t, ctx, c, ci, n, id)
					}
					if !ok {
						return
					}
					proofs[ci] = append(proofs[ci], proof)
				}
			}
		}(ci)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Bit-identical to chaos-free direct proves, every submission.
	want := make([][]byte, len(contents))
	for n, req := range contents {
		d, err := proveDirect(context.Background(), req)
		if err != nil {
			t.Fatalf("direct prove %d: %v", n, err)
		}
		want[n] = d.Proof
	}
	for ci, ps := range proofs {
		if len(ps) != numRepeats*len(contents) {
			t.Fatalf("client %d finished %d/%d submissions", ci, len(ps), numRepeats*len(contents))
		}
		for i, p := range ps {
			if !bytes.Equal(p, want[i%len(contents)]) {
				t.Fatalf("client %d submission %d: proof differs from direct prove", ci, i)
			}
		}
	}

	// Exactly one prove per unique content across every tenant, retry,
	// and replay: the whole point of the content-addressed tier.
	m := s.Metrics()
	if got := m.ProveInvocations - baseInv; got != int64(len(contents)) {
		t.Fatalf("prove invocations = %d, unique contents = %d — the cache leaked work",
			got, len(contents))
	}

	// The starved tenant: submitting already-cached content (so even
	// its admitted call costs no prove), it must run out of tokens and
	// see 429 rate_limited naming itself, while everyone else already
	// finished cleanly above. Transport faults are retried by hand; the
	// RetryPolicy would otherwise sleep on the very 429 we want to see.
	starved := serverclient.New(ts.URL)
	starved.HTTPClient = &http.Client{Transport: rt}
	starved.APIKey = "starved-key"
	var apiErr *serverclient.APIError
	deadline := time.Now().Add(time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("starved tenant never hit its rate limit")
		}
		_, err := starved.SubmitDetail(ctx, contents[0], serverclient.Options{})
		if err == nil {
			continue // burst token spent; go again
		}
		var te *serverclient.TransportError
		if errors.As(err, &te) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if !errors.As(err, &apiErr) {
			t.Fatalf("starved submit: unclassified error %v", err)
		}
		if apiErr.Class == "injected_blip" {
			// Chaos 503, not the rate limiter — same as a transport fault.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		break
	}
	if apiErr.StatusCode != http.StatusTooManyRequests ||
		apiErr.Class != tenant.ReasonRateLimited ||
		apiErr.Tenant != "starved" || apiErr.RetryAfter < time.Second {
		t.Fatalf("starved rejection = %+v, want 429 rate_limited/starved with Retry-After", apiErr)
	}

	// Counter bookkeeping: every submission beyond the three leaders
	// was answered by the cache (hit or coalesced attach), each content
	// was inserted once, the starved tenant's rejections were counted,
	// and the per-tenant roster has a row per configured tenant.
	if m.CacheInserted != int64(len(contents)) {
		t.Fatalf("cache inserted = %d, want %d", m.CacheInserted, len(contents))
	}
	total := int64(numClients * numRepeats * len(contents))
	if m.CacheHits+m.CacheCoalesced < total-int64(len(contents)) {
		t.Fatalf("cache hits %d + coalesced %d < %d non-leader submissions",
			m.CacheHits, m.CacheCoalesced, total-int64(len(contents)))
	}
	m = s.Metrics() // re-snapshot: the starved phase ran after the first one
	if m.RejectedRateLimited == 0 {
		t.Fatalf("starved tenant rejections uncounted (metrics %+v)", m)
	}
	roster := map[string]serverclient.TenantMetrics{}
	for _, row := range m.Tenants {
		roster[row.Name] = row
	}
	if roster["starved"].RateLimited == 0 || roster["t0"].Admitted == 0 {
		t.Fatalf("tenant roster = %+v", m.Tenants)
	}
	if st := chaos.Stats(); st.Total() == 0 {
		t.Fatal("chaos injected no faults; the soak proved nothing")
	} else {
		t.Logf("chaos: %+v", st)
		t.Logf("server: prove invocations %d, cache hits %d coalesced %d inserted %d, rate-limited %d",
			m.ProveInvocations-baseInv, m.CacheHits, m.CacheCoalesced, m.CacheInserted,
			m.RejectedRateLimited)
	}

	// Drain, close, settle: coalesced watchers and SSE streams must
	// all unwind.
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	ts.Close()
	inner.CloseIdleConnections()
	settleGoroutines(t, before)
}

// soakAwaitStream retries WaitStream until the proof arrives: the SSE
// path with its plain-poll fallback, under the same chaos and the same
// error classification as soakAwait.
func soakAwaitStream(t *testing.T, ctx context.Context, c *serverclient.Client, ci, n int, id string) ([]byte, bool) {
	for {
		res, err := c.WaitStream(ctx, id, nil)
		if err == nil {
			return res.Proof, true
		}
		if !soakRetryable(err) {
			t.Errorf("client %d job %d (%s): stream wait failed with unclassified/terminal error: %v", ci, n, id, err)
			return nil, false
		}
		select {
		case <-ctx.Done():
			t.Errorf("client %d job %d (%s): soak deadline during stream wait (last: %v)", ci, n, id, err)
			return nil, false
		case <-time.After(10 * time.Millisecond):
		}
	}
}
