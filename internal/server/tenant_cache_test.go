package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"unizk/internal/jobcore"
	"unizk/internal/jobs"
	"unizk/internal/serverclient"
	"unizk/internal/tenant"
)

// TestProofCacheHit pins the content-addressed cache contract: a second
// submission of the same content — from a different client, with a
// different idempotency key — is served from cache with zero additional
// prover invocations and bit-identical proof bytes.
func TestProofCacheHit(t *testing.T) {
	s, c := newTestServer(t, Config{QueueCap: 8, MaxInFlight: 2,
		Options: jobcore.Options{CacheEntries: 16}})
	ctx := context.Background()

	mk := func(key string) *jobs.Request {
		return &jobs.Request{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5,
			IdempotencyKey: key}
	}
	first, err := c.SubmitDetail(ctx, mk("client-a"), serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		hit, err := c.SubmitDetail(ctx, mk(""), serverclient.Options{})
		if err != nil {
			t.Fatalf("cached submit %d: %v", i, err)
		}
		if !hit.Cached || hit.Deduplicated || hit.ID == first.ID {
			t.Fatalf("cached submit %d = %+v, want fresh id served from cache", i, hit)
		}
		if hit.State != "done" {
			t.Fatalf("cached submit %d state = %q, want done", i, hit.State)
		}
		again, err := c.Result(ctx, hit.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Proof, res.Proof) {
			t.Fatalf("cached submit %d: proof bytes differ from the proved original", i)
		}
	}

	direct, err := proveDirect(ctx, mk(""))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Proof, direct.Proof) {
		t.Fatal("cached proof differs from direct prove")
	}

	m := s.Metrics()
	if m.ProveInvocations != 1 {
		t.Fatalf("prove invocations = %d, want 1", m.ProveInvocations)
	}
	if m.CacheHits != 3 || m.CacheInserted != 1 || m.CacheEntries != 1 {
		t.Fatalf("cache counters = hits %d inserted %d entries %d, want 3/1/1",
			m.CacheHits, m.CacheInserted, m.CacheEntries)
	}
	if m.RegistryCompiles != 1 {
		t.Fatalf("registry compiles = %d, want 1", m.RegistryCompiles)
	}
}

// TestProofCacheCoalescing holds a leader in flight and races identical
// submissions against it: every follower attaches to the leader's job
// (Coalesced), exactly one prover runs, and all responses are
// bit-identical.
func TestProofCacheCoalescing(t *testing.T) {
	gate := make(chan struct{})
	s, c := newTestServer(t, Config{QueueCap: 16, MaxInFlight: 2,
		Options: jobcore.Options{CacheEntries: 16},
		testHookRunning: func(j *jobcore.Job) {
			select {
			case <-gate:
			case <-j.Context().Done():
			}
		}})
	ctx := context.Background()
	req := &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5}

	leader, err := c.Submit(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, leader, "running")

	const n = 6
	replies := make([]*serverclient.SubmitReply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.SubmitDetail(ctx, req, serverclient.Options{})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			replies[i] = r
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, r := range replies {
		if !r.Coalesced || r.ID != leader {
			t.Fatalf("submit %d = %+v, want coalesced onto %s", i, r, leader)
		}
	}

	close(gate)
	res, err := c.Wait(ctx, leader)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := proveDirect(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Proof, direct.Proof) {
		t.Fatal("coalesced proof differs from direct prove")
	}

	m := s.Metrics()
	if m.ProveInvocations != 1 {
		t.Fatalf("prove invocations = %d, want 1", m.ProveInvocations)
	}
	if m.CacheCoalesced != n {
		t.Fatalf("coalesced counter = %d, want %d", m.CacheCoalesced, n)
	}
	// The flight completed: the next identical submit is a plain hit.
	hit, err := c.SubmitDetail(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatalf("post-flight submit = %+v, want cached", hit)
	}
}

// TestCacheFailureNotCached cancels a flight leader mid-prove: the
// flight aborts, nothing is cached, and the next identical submit
// proves fresh and succeeds.
func TestCacheFailureNotCached(t *testing.T) {
	gate := make(chan struct{})
	s, c := newTestServer(t, Config{QueueCap: 8, MaxInFlight: 1,
		Options: jobcore.Options{CacheEntries: 16},
		testHookRunning: func(j *jobcore.Job) {
			select {
			case <-gate:
			case <-j.Context().Done():
			}
		}})
	ctx := context.Background()
	req := &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 5}

	first, err := c.Submit(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, first, "running")
	if err := c.Cancel(ctx, first); err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, first, "canceled")

	close(gate)
	retry, err := c.SubmitDetail(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if retry.Cached || retry.Coalesced {
		t.Fatalf("retry after canceled leader = %+v, want fresh prove", retry)
	}
	res, err := c.Wait(ctx, retry.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := jobs.CheckResult(req, res); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.CacheInserted != 1 {
		t.Fatalf("inserted = %d, want 1 (only the successful retry)", m.CacheInserted)
	}
}

// TestTenantAuthAndLimits drives the multi-tenant gate end to end:
// unknown keys get 401; a rate-limited tenant gets 429 "rate_limited"
// with a computed Retry-After naming the tenant, while another tenant is
// unaffected; anonymous requests ride the default tenant.
func TestTenantAuthAndLimits(t *testing.T) {
	reg, err := tenant.NewRegistry(
		tenant.Config{Name: "alpha", Key: "alpha-key", Rate: 0.001, Burst: 2},
		tenant.Config{Name: "beta", Key: "beta-key"},
	)
	if err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, Config{QueueCap: 8, MaxInFlight: 2,
		Options: jobcore.Options{Tenants: reg}})
	ctx := context.Background()
	req := &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5}

	// Unknown key → 401, not retryable.
	bad := *c
	bad.APIKey = "no-such-key"
	_, err = bad.Submit(ctx, req, serverclient.Options{})
	var apiErr *serverclient.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key submit = %v, want 401", err)
	}
	if apiErr.Class != "unauthorized" || serverclient.Retryable(apiErr.StatusCode) {
		t.Fatalf("401 reply = %+v, want terminal unauthorized", apiErr)
	}

	// alpha has burst 2 and a near-zero refill: two submits pass, the
	// third hits the bucket.
	alpha := *c
	alpha.APIKey = "alpha-key"
	for i := 0; i < 2; i++ {
		id, err := alpha.Submit(ctx, req, serverclient.Options{})
		if err != nil {
			t.Fatalf("alpha submit %d: %v", i, err)
		}
		if _, err := alpha.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	_, err = alpha.Submit(ctx, req, serverclient.Options{})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit = %v, want 429", err)
	}
	if apiErr.Class != tenant.ReasonRateLimited || !serverclient.Retryable(apiErr.StatusCode) {
		t.Fatalf("429 reply = %+v, want retryable rate_limited", apiErr)
	}
	if apiErr.Tenant != "alpha" {
		t.Fatalf("429 names tenant %q, want alpha", apiErr.Tenant)
	}
	if apiErr.RetryAfter < time.Second {
		t.Fatalf("429 Retry-After = %v, want ≥1s", apiErr.RetryAfter)
	}

	// beta (unlimited) and anonymous (default tenant) are unaffected.
	beta := *c
	beta.APIKey = "beta-key"
	for name, cl := range map[string]*serverclient.Client{"beta": &beta, "anon": c} {
		id, err := cl.Submit(ctx, req, serverclient.Options{})
		if err != nil {
			t.Fatalf("%s submit during alpha limit: %v", name, err)
		}
		if _, err := cl.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}

	m := s.Metrics()
	if m.RejectedRateLimited != 1 || m.RejectedUnauthorized != 1 {
		t.Fatalf("rejected limited/unauth = %d/%d, want 1/1",
			m.RejectedRateLimited, m.RejectedUnauthorized)
	}
	byName := map[string]serverclient.TenantMetrics{}
	for _, row := range m.Tenants {
		byName[row.Name] = row
	}
	if byName["alpha"].RateLimited != 1 {
		t.Fatalf("alpha rate_limited = %d, want 1 (%+v)", byName["alpha"].RateLimited, m.Tenants)
	}
	if byName["beta"].Admitted < 1 || byName[tenant.DefaultName].Admitted < 1 {
		t.Fatalf("beta/default admitted = %+v", m.Tenants)
	}
}

// TestTenantInFlightQuota fills a tenant's in-flight quota with a held
// job: the next submit gets 429 "quota_exceeded"; finishing the held job
// frees the slot.
func TestTenantInFlightQuota(t *testing.T) {
	reg, err := tenant.NewRegistry(
		tenant.Config{Name: "small", Key: "small-key", MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	_, c := newTestServer(t, Config{QueueCap: 8, MaxInFlight: 2,
		Options: jobcore.Options{Tenants: reg},
		testHookRunning: func(j *jobcore.Job) {
			select {
			case <-gate:
			case <-j.Context().Done():
			}
		}})
	ctx := context.Background()
	small := *c
	small.APIKey = "small-key"
	req := &jobs.Request{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5}

	held, err := small.Submit(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, &small, held, "running")

	_, err = small.Submit(ctx, &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 5}, serverclient.Options{})
	var apiErr *serverclient.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %v, want 429", err)
	}
	if apiErr.Class != tenant.ReasonQuotaExceeded || apiErr.Tenant != "small" {
		t.Fatalf("quota reply = %+v, want quota_exceeded/small", apiErr)
	}

	close(gate)
	if _, err := small.Wait(ctx, held); err != nil {
		t.Fatal(err)
	}
	// Slot released: the tenant can submit again.
	id, err := small.Submit(ctx, &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 5}, serverclient.Options{})
	if err != nil {
		t.Fatalf("submit after release: %v", err)
	}
	if _, err := small.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
}
