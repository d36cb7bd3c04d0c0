package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/server"
	"unizk/internal/serverclient"
	"unizk/internal/tenant"
)

// nodeProveInvocations sums actual prover entries across the real node
// processes — the ground truth the coordinator-level cache must keep
// from growing.
func nodeProveInvocations(nodes []*testNode) int64 {
	var total int64
	for _, n := range nodes {
		total += n.srv.Metrics().ProveInvocations
	}
	return total
}

// TestClusterCacheAndTenants drives the serving tier against a 3-node
// cluster: the coordinator's content-addressed cache answers repeats
// and coalesces concurrent identical submissions with exactly one prove
// across the whole cluster, tenant limits reject at the cluster edge
// with 429 + Retry-After while other tenants are unaffected, and
// /metrics reports cache and per-tenant counters.
func TestClusterCacheAndTenants(t *testing.T) {
	nodes := []*testNode{
		startTestNode(t, server.Config{QueueCap: 16, MaxInFlight: 2}),
		startTestNode(t, server.Config{QueueCap: 16, MaxInFlight: 2}),
		startTestNode(t, server.Config{QueueCap: 16, MaxInFlight: 2}),
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.kill()
		}
	})
	reg, err := tenant.NewRegistry(
		tenant.Config{Name: "alpha", Key: "alpha-key", Rate: 0.001, Burst: 1},
		tenant.Config{Name: "beta", Key: "beta-key", Class: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(nodes[0].url, nodes[1].url, nodes[2].url)
	cfg.CacheEntries = 32
	cfg.CacheVerify = true
	cfg.Tenants = reg
	coord, cl, _ := startCluster(t, cfg)
	waitHealthy(t, coord, 3)
	ctx := context.Background()

	beta := *cl
	beta.APIKey = "beta-key"
	req := &jobs.Request{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5}

	// First submission proves on some node; repeats are coordinator
	// cache hits — zero extra node traffic, bit-identical bytes.
	first, err := beta.SubmitDetail(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := beta.Wait(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	base := nodeProveInvocations(nodes)
	for i := 0; i < 3; i++ {
		hit, err := beta.SubmitDetail(ctx, req, serverclient.Options{})
		if err != nil {
			t.Fatalf("cached submit %d: %v", i, err)
		}
		if !hit.Cached || hit.State != "done" {
			t.Fatalf("cached submit %d = %+v, want done from cache", i, hit)
		}
		again, err := beta.Result(ctx, hit.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Proof, res.Proof) {
			t.Fatalf("cached submit %d: proof differs", i)
		}
	}
	if got := nodeProveInvocations(nodes); got != base {
		t.Fatalf("cache hits reached the nodes: prove invocations %d → %d", base, got)
	}
	if !bytes.Equal(res.Proof, directProof(t, req)) {
		t.Fatal("cluster-cached proof differs from direct prove")
	}

	// Concurrent identical submissions of fresh content coalesce onto
	// one cluster job: exactly one prove across all three nodes.
	herd := &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 6}
	base = nodeProveInvocations(nodes)
	const k = 6
	var wg sync.WaitGroup
	proofs := make([][]byte, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := beta.SubmitDetail(ctx, herd, serverclient.Options{})
			if err != nil {
				errs[i] = err
				return
			}
			res, err := beta.Wait(ctx, r.ID)
			if err != nil {
				errs[i] = err
				return
			}
			proofs[i] = res.Proof
		}(i)
	}
	wg.Wait()
	want := directProof(t, herd)
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("herd submit %d: %v", i, errs[i])
		}
		if !bytes.Equal(proofs[i], want) {
			t.Fatalf("herd submit %d: proof differs from direct prove", i)
		}
	}
	if got := nodeProveInvocations(nodes); got != base+1 {
		t.Fatalf("herd proved %d times across the cluster, want exactly 1", got-base)
	}

	// alpha's token bucket (burst 1, ~no refill): first passes, second
	// gets 429 rate_limited naming the tenant; beta is unaffected.
	alpha := *cl
	alpha.APIKey = "alpha-key"
	other := &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 5}
	id, err := alpha.Submit(ctx, other, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alpha.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	_, err = alpha.Submit(ctx, other, serverclient.Options{})
	var apiErr *serverclient.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate cluster submit = %v, want 429", err)
	}
	if apiErr.Class != tenant.ReasonRateLimited || apiErr.Tenant != "alpha" || apiErr.RetryAfter < time.Second {
		t.Fatalf("cluster 429 = %+v, want rate_limited/alpha with Retry-After", apiErr)
	}
	if hit, err := beta.SubmitDetail(ctx, req, serverclient.Options{}); err != nil || !hit.Cached {
		t.Fatalf("beta during alpha limit = %+v %v, want unaffected cache hit", hit, err)
	}

	// Unknown key at the cluster edge: 401, terminal.
	bad := *cl
	bad.APIKey = "no-such-key"
	if _, err := bad.Submit(ctx, req, serverclient.Options{}); !errors.As(err, &apiErr) ||
		apiErr.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key cluster submit = %v, want 401", err)
	}

	m := coord.Metrics()
	// The 5 herd followers land as coalesced attaches or — if they arrive
	// after the leader completed — as plain hits, so bound the sum: 4
	// loop/limit hits plus 5 herd followers.
	if m.CacheHits < 4 || m.CacheInserted < 2 || m.CacheCoalesced+m.CacheHits < 9 {
		t.Fatalf("cluster cache counters = hits %d inserted %d coalesced %d",
			m.CacheHits, m.CacheInserted, m.CacheCoalesced)
	}
	if m.RejectedRateLimited != 1 || m.RejectedUnauthorized != 1 {
		t.Fatalf("rejected limited/unauth = %d/%d, want 1/1",
			m.RejectedRateLimited, m.RejectedUnauthorized)
	}
	byName := map[string]serverclient.TenantMetrics{}
	for _, row := range m.Tenants {
		byName[row.Name] = row
	}
	if byName["alpha"].RateLimited != 1 || byName["beta"].Admitted < 2 {
		t.Fatalf("tenant roster = %+v", m.Tenants)
	}
}
