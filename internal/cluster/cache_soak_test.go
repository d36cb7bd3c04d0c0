package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"unizk/internal/faultinject/netchaos"
	"unizk/internal/jobcore"
	"unizk/internal/jobs"
	"unizk/internal/server"
	"unizk/internal/serverclient"
	"unizk/internal/tenant"
)

// TestClusterCacheSoak is the cluster-topology half of the cache-soak
// gate: distinct-tenant clients hammer the same request contents (no
// idempotency keys) through a 3-node cluster whose node listeners and
// coordinator links all inject faults. The coordinator's
// content-addressed cache must hold the whole cluster to one prove per
// unique content — any surplus must be paid for by a recorded
// re-dispatch — every proof must be bit-identical to a direct prove, a
// starved tenant must be rejected 429 at the cluster edge without
// touching the others, and everything must unwind without goroutine
// leaks under the race detector.
func TestClusterCacheSoak(t *testing.T) {
	const (
		seed       = 20250808
		numNodes   = 3
		numClients = 4
		numRepeats = 2
	)
	before := runtime.NumGoroutine()
	nodeCfg := server.Config{QueueCap: 64, MaxInFlight: 2}

	chaosFor := func(i int64) *netchaos.Chaos {
		return netchaos.New(netchaos.Config{
			Seed:            seed + i,
			AcceptDelayProb: 0.05,
			ConnDelayProb:   0.02,
			ConnResetProb:   0.01,
			MaxDelay:        2 * time.Millisecond,
			ReqResetProb:    0.08,
			TruncateProb:    0.08,
			BlipProb:        0.08,
		})
	}

	type liveNode struct {
		srv *server.Server
		hs  *http.Server
	}
	var nodes []*liveNode
	var chaoses []*netchaos.Chaos
	var urls []string
	for i := 0; i < numNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		chaos := chaosFor(int64(i))
		s := server.New(nodeCfg)
		hs := &http.Server{Handler: s.Handler()}
		go func() { _ = hs.Serve(chaos.WrapListener(ln)) }()
		nodes = append(nodes, &liveNode{srv: s, hs: hs})
		chaoses = append(chaoses, chaos)
		urls = append(urls, "http://"+ln.Addr().String())
	}

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

	linkChaos := chaosFor(100)
	innerRT := &http.Transport{}
	coord, err := startFast(Config{
		Nodes:         urls,
		ProbeInterval: 25 * time.Millisecond,
		StaleAfter:    time.Second,
		Transport:     linkChaos.WrapTransport(innerRT),
		Options: jobcore.Options{
			CacheEntries: 64,
			CacheVerify:  true,
			Tenants:      reg,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	waitHealthy(t, coord, numNodes)

	contents := []*jobs.Request{
		{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5},
		{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5},
		{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 4},
	}
	var baseInv int64
	for _, n := range nodes {
		baseInv += n.srv.Metrics().ProveInvocations
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	proofs := make([][][]byte, numClients)
	var wg sync.WaitGroup
	for ci := 0; ci < numClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := serverclient.New(ts.URL)
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
						proof, ok = clusterSoakAwaitStream(t, ctx, c, ci, n, id)
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

	want := make([][]byte, len(contents))
	for n, req := range contents {
		want[n] = directProof(t, req)
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

	// Exactly-once across the cluster: one prove per unique content,
	// with any surplus paid for by a recorded re-dispatch (a node
	// abandoned mid-prove after chaos ate a whole probe window).
	cm := coord.Metrics()
	var inv int64
	for _, n := range nodes {
		inv += n.srv.Metrics().ProveInvocations
	}
	inv -= baseInv
	if inv < int64(len(contents)) {
		t.Fatalf("node prove invocations %d < %d unique contents — a proof came from nowhere",
			inv, len(contents))
	}
	if waste := inv - int64(len(contents)); waste > cm.Redispatches {
		t.Fatalf("wasted invocations %d exceed %d recorded re-dispatches (inv=%d contents=%d)",
			waste, cm.Redispatches, inv, len(contents))
	}
	if cm.CacheInserted < int64(len(contents)) {
		t.Fatalf("coordinator cache inserted %d, want ≥%d", cm.CacheInserted, len(contents))
	}
	total := int64(numClients * numRepeats * len(contents))
	if cm.CacheHits+cm.CacheCoalesced < total-cm.CacheInserted {
		t.Fatalf("cache hits %d + coalesced %d < %d non-leader submissions",
			cm.CacheHits, cm.CacheCoalesced, total-cm.CacheInserted)
	}

	// The starved tenant is rejected at the cluster edge: submitting
	// already-cached content, it runs out of tokens and sees 429
	// rate_limited naming itself with a computed Retry-After.
	starved := serverclient.New(ts.URL)
	starved.APIKey = "starved-key"
	var apiErr *serverclient.APIError
	deadline := time.Now().Add(time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("starved tenant never hit its rate limit")
		}
		_, err := starved.SubmitDetail(ctx, contents[0], serverclient.Options{})
		if err == nil {
			continue
		}
		var te *serverclient.TransportError
		if errors.As(err, &te) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if !errors.As(err, &apiErr) {
			t.Fatalf("starved submit: unclassified error %v", err)
		}
		break
	}
	if apiErr.StatusCode != http.StatusTooManyRequests ||
		apiErr.Class != tenant.ReasonRateLimited ||
		apiErr.Tenant != "starved" || apiErr.RetryAfter < time.Second {
		t.Fatalf("starved rejection = %+v, want 429 rate_limited/starved with Retry-After", apiErr)
	}
	cm = coord.Metrics()
	if cm.RejectedRateLimited == 0 {
		t.Fatalf("starved rejections uncounted (metrics %+v)", cm)
	}
	roster := map[string]serverclient.TenantMetrics{}
	for _, row := range cm.Tenants {
		roster[row.Name] = row
	}
	if roster["starved"].RateLimited == 0 || roster["t0"].Admitted == 0 {
		t.Fatalf("tenant roster = %+v", cm.Tenants)
	}

	var chaosTotal int64
	for _, ch := range chaoses {
		chaosTotal += ch.Stats().Total()
	}
	chaosTotal += linkChaos.Stats().Total()
	if chaosTotal == 0 {
		t.Fatal("chaos injected no faults; the soak proved nothing")
	}
	t.Logf("cluster cache soak: invocations %d for %d contents, cache hits %d coalesced %d inserted %d, redispatches %d, rate-limited %d, chaos %d",
		inv, len(contents), cm.CacheHits, cm.CacheCoalesced, cm.CacheInserted,
		cm.Redispatches, cm.RejectedRateLimited, chaosTotal)

	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := coord.Shutdown(sctx); err != nil {
		t.Fatalf("coordinator drain after soak: %v", err)
	}
	ts.Close()
	for i, n := range nodes {
		if err := n.srv.Shutdown(sctx); err != nil {
			t.Fatalf("node %d drain after soak: %v", i, err)
		}
		_ = n.hs.Close()
	}
	innerRT.CloseIdleConnections()
	settleGoroutines(t, before)
}

// clusterSoakAwaitStream retries WaitStream until the proof arrives —
// the SSE path with its plain-poll fallback, under the same chaos and
// error classification as soakAwait.
func clusterSoakAwaitStream(t *testing.T, ctx context.Context, c *serverclient.Client, ci, n int, id string) ([]byte, bool) {
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
