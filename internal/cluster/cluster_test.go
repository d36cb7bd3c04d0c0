package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unizk/internal/jobcore"
	"unizk/internal/jobs"
	"unizk/internal/server"
	"unizk/internal/serverclient"
)

// testNode is one real prover node under test control, killable and
// restartable on the same address.
type testNode struct {
	srv  *server.Server
	hs   *http.Server
	addr string
	url  string
}

func startTestNode(t *testing.T, cfg server.Config) *testNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveTestNode(ln, cfg)
}

func serveTestNode(ln net.Listener, cfg server.Config) *testNode {
	s := server.New(cfg)
	hs := &http.Server{Handler: s.Handler()}
	tn := &testNode{srv: s, hs: hs, addr: ln.Addr().String()}
	tn.url = "http://" + tn.addr
	go func() { _ = hs.Serve(ln) }()
	return tn
}

// kill hard-kills the node: listener and live connections close, and
// in-flight jobs are force-canceled with an already-expired context —
// no drain, no goodbye, as a crash would.
func (tn *testNode) kill() {
	_ = tn.hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = tn.srv.Shutdown(ctx)
}

// restartTestNode brings a fresh server process up on the same address
// the killed one held — the restarted-node scenario whose epoch change
// the coordinator must detect.
func restartTestNode(t *testing.T, addr string, cfg server.Config) *testNode {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return serveTestNode(ln, cfg)
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-listen on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fastConfig is the test coordinator config: a millisecond probe
// cadence and a short staleness bound.
func fastConfig(urls ...string) Config {
	return Config{
		Nodes:         urls,
		ProbeInterval: 20 * time.Millisecond,
		StaleAfter:    400 * time.Millisecond,
	}
}

// fast lowers the coordinator's fixed timings to test scale — result
// polling and last-chance recovery — so failover scenarios run in test
// time.
func fast(cfg Config) settings {
	s := cfg.withDefaults()
	s.pollInterval = 10 * time.Millisecond
	s.recoverTimeout = 300 * time.Millisecond
	return s
}

// startFast starts a coordinator on fast(cfg).
func startFast(cfg Config) (*Coordinator, error) { return start(fast(cfg)) }

func startCluster(t *testing.T, cfg Config) (*Coordinator, *serverclient.Client, string) {
	t.Helper()
	c, err := startFast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return serveCluster(t, c)
}

// serveCluster fronts a running coordinator with an HTTP server; cleanup
// drains both.
func serveCluster(t *testing.T, c *Coordinator) (*Coordinator, *serverclient.Client, string) {
	t.Helper()
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = c.Shutdown(sctx)
		ts.Close()
	})
	return c, serverclient.New(ts.URL), ts.URL
}

func waitHealthy(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.x.healthyNodes() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d healthy nodes, want %d", c.x.healthyNodes(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func directProof(t *testing.T, req *jobs.Request) []byte {
	t.Helper()
	res, err := jobs.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("direct prove: %v", err)
	}
	return res.Proof
}

// TestClusterProveBasic drives jobs of both kinds through a two-node
// cluster with the stock serverclient and checks the proofs are
// bit-identical to direct, clusterless proving.
func TestClusterProveBasic(t *testing.T) {
	n1 := startTestNode(t, server.Config{})
	n2 := startTestNode(t, server.Config{})
	t.Cleanup(n1.kill)
	t.Cleanup(n2.kill)

	coord, cl, _ := startCluster(t, fastConfig(n1.url, n2.url))
	waitHealthy(t, coord, 2)
	ctx := context.Background()

	reqs := []*jobs.Request{
		{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 6},
		{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 6},
		{Kind: jobs.KindStark, Workload: "SHA-256", LogRows: 5},
	}
	for _, req := range reqs {
		id, err := cl.Submit(ctx, req, serverclient.Options{})
		if err != nil {
			t.Fatalf("%s/%s: submit: %v", req.Kind, req.Workload, err)
		}
		res, err := cl.Wait(ctx, id)
		if err != nil {
			t.Fatalf("%s/%s: wait: %v", req.Kind, req.Workload, err)
		}
		if err := jobs.CheckResult(req, res); err != nil {
			t.Fatalf("%s/%s: verify: %v", req.Kind, req.Workload, err)
		}
		if !bytes.Equal(res.Proof, directProof(t, req)) {
			t.Fatalf("%s/%s: cluster proof differs from direct prove", req.Kind, req.Workload)
		}
	}

	// The sync endpoint works through the coordinator too.
	syncReq := &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 5}
	res, err := cl.Prove(ctx, syncReq, serverclient.Options{})
	if err != nil {
		t.Fatalf("sync prove: %v", err)
	}
	if !bytes.Equal(res.Proof, directProof(t, syncReq)) {
		t.Fatal("sync cluster proof differs from direct prove")
	}

	m := coord.Metrics()
	if m.Completed != 4 || m.Failed != 0 {
		t.Fatalf("cluster metrics completed=%d failed=%d, want 4/0", m.Completed, m.Failed)
	}
	if m.Status != "ok" || m.NodesHealthy != 2 {
		t.Fatalf("cluster status %q healthy=%d, want ok/2", m.Status, m.NodesHealthy)
	}
}

// TestClusterFailoverNodeDown kills one of two nodes while jobs are in
// flight: every job still completes with a correct proof, the dead node
// is ejected, and the coordinator keeps answering healthz with 200.
func TestClusterFailoverNodeDown(t *testing.T) {
	n1 := startTestNode(t, server.Config{MaxInFlight: 2})
	n2 := startTestNode(t, server.Config{MaxInFlight: 2})
	t.Cleanup(n1.kill)
	t.Cleanup(n2.kill)

	coord, cl, baseURL := startCluster(t, fastConfig(n1.url, n2.url))
	waitHealthy(t, coord, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Slow-ish jobs so some are genuinely mid-flight at the kill.
	reqs := make([]*jobs.Request, 6)
	ids := make([]string, len(reqs))
	for i := range reqs {
		reqs[i] = &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 12 + i%2}
		id, err := cl.Submit(ctx, reqs[i], serverclient.Options{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}

	n2.kill()

	for i, id := range ids {
		res, err := cl.Wait(ctx, id)
		if err != nil {
			t.Fatalf("job %d (%s) after node kill: %v", i, id, err)
		}
		if !bytes.Equal(res.Proof, directProof(t, reqs[i])) {
			t.Fatalf("job %d: proof differs from direct prove", i)
		}
	}

	// The dead node ends up ejected; the coordinator stays up (200) and
	// reports itself degraded.
	deadline := time.Now().Add(10 * time.Second)
	for coord.Metrics().Ejections == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead node was never ejected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serverclient.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "degraded" {
		t.Fatalf("healthz with one node down = %d %q, want 200 degraded", resp.StatusCode, h.Status)
	}
}

// TestClusterEpochChangeRedispatch pins restart detection in isolation
// from staleness ejection: StaleAfter is effectively infinite, so only
// the healthz identity change can tell the coordinator its node lost
// the job. A single node holds a cluster job queued behind a blocker,
// is hard-killed and restarted on the same address, and the coordinator
// must notice the new epoch and re-dispatch.
func TestClusterEpochChangeRedispatch(t *testing.T) {
	n := startTestNode(t, server.Config{MaxInFlight: 1})
	t.Cleanup(func() { n.kill() })

	cfg := fastConfig(n.url)
	cfg.StaleAfter = time.Hour // ejection must play no part here
	coord, cl, _ := startCluster(t, cfg)
	waitHealthy(t, coord, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Blocker directly on the node: occupies its single prover slot.
	nodeClient := serverclient.New(n.url)
	blockerID, err := nodeClient.Submit(ctx, &jobs.Request{
		Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 14}, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = blockerID

	// Cluster job queues behind the blocker on the node.
	req := &jobs.Request{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 6}
	id, err := cl.Submit(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the coordinator has actually placed it remotely.
	j, ok := coord.x.core.Lookup(id)
	if !ok {
		t.Fatalf("cluster job %s not registered", id)
	}
	p := j.Exec.(*placement)
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		placed := p.remoteID != ""
		p.mu.Unlock()
		if placed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster job was never dispatched to the node")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Crash and restart the node on the same address. The new process
	// has no memory of the queued job.
	oldID := n.srv.NodeID()
	n.kill()
	n2 := restartTestNode(t, n.addr, server.Config{MaxInFlight: 1})
	t.Cleanup(n2.kill)
	if n2.srv.NodeID() == oldID {
		t.Fatal("restarted server minted the same node id")
	}

	res, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatalf("job after node restart: %v", err)
	}
	if !bytes.Equal(res.Proof, directProof(t, req)) {
		t.Fatal("re-dispatched proof differs from direct prove")
	}

	m := coord.Metrics()
	if m.EpochChanges == 0 {
		t.Fatalf("no epoch change detected (metrics %+v)", m)
	}
	if m.Redispatches == 0 {
		t.Fatal("job was not re-dispatched after the restart")
	}
	p.mu.Lock()
	red := p.redispatches
	p.mu.Unlock()
	if red == 0 {
		t.Fatal("job record shows no redispatch")
	}
}

// TestClusterNoHealthyNodes503 pins the degradation contract: with
// every node unreachable the coordinator refuses submissions with 503,
// class no_healthy_nodes, and a Retry-After of at least a second.
func TestClusterNoHealthyNodes503(t *testing.T) {
	// Grab a port nobody listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	_, cl, _ := startCluster(t, fastConfig(deadURL))

	_, err = cl.Submit(context.Background(),
		&jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 5},
		serverclient.Options{})
	var ae *serverclient.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("submit with no nodes = %v, want APIError", err)
	}
	if ae.StatusCode != http.StatusServiceUnavailable || ae.Class != "no_healthy_nodes" {
		t.Fatalf("rejection = %d %q, want 503 no_healthy_nodes", ae.StatusCode, ae.Class)
	}
	if ae.RetryAfter < time.Second {
		t.Fatalf("Retry-After = %v, want ≥1s", ae.RetryAfter)
	}
	if !serverclient.Retryable(ae.StatusCode) {
		t.Fatal("no_healthy_nodes rejection must be retryable")
	}
}

// TestClusterSaturated503 fills the coordinator's pending capacity and
// checks the overflow submission is refused with 503 cluster_saturated
// + Retry-After, while the admitted jobs still complete.
func TestClusterSaturated503(t *testing.T) {
	n := startTestNode(t, server.Config{MaxInFlight: 1})
	t.Cleanup(n.kill)

	// The pending cap is 64 per node; lower it here so two jobs fill it.
	s := fast(fastConfig(n.url))
	s.pendingCap = 2
	c, err := start(s)
	if err != nil {
		t.Fatal(err)
	}
	coord, cl, _ := serveCluster(t, c)
	waitHealthy(t, coord, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Two slow jobs fill the pending cap on the single-slot node.
	var ids []string
	for i := 0; i < 2; i++ {
		id, err := cl.Submit(ctx, &jobs.Request{
			Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 13 + i}, serverclient.Options{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}

	_, err = cl.Submit(ctx, &jobs.Request{
		Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5}, serverclient.Options{})
	var ae *serverclient.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("overflow submit = %v, want APIError", err)
	}
	if ae.StatusCode != http.StatusServiceUnavailable || ae.Class != "cluster_saturated" {
		t.Fatalf("rejection = %d %q, want 503 cluster_saturated", ae.StatusCode, ae.Class)
	}
	if ae.RetryAfter < time.Second {
		t.Fatalf("Retry-After = %v, want ≥1s", ae.RetryAfter)
	}

	for _, id := range ids {
		if _, err := cl.Wait(ctx, id); err != nil {
			t.Fatalf("admitted job %s: %v", id, err)
		}
	}
}

// TestClusterReplicatedIdempotency pins the tentpole dedup property:
// the coordinator's own fingerprint index answers retries — including
// retries arriving after the node that proved the job is dead — and
// key reuse with different bytes is a 409 conflict.
func TestClusterReplicatedIdempotency(t *testing.T) {
	n := startTestNode(t, server.Config{})
	t.Cleanup(n.kill)

	coord, cl, _ := startCluster(t, fastConfig(n.url))
	waitHealthy(t, coord, 1)
	ctx := context.Background()

	req := &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 6,
		IdempotencyKey: "replicated-k1"}
	reply, err := cl.SubmitDetail(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Wait(ctx, reply.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Live-node replay dedups onto the same cluster job.
	replay, err := cl.SubmitDetail(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Deduplicated || replay.ID != reply.ID {
		t.Fatalf("replay = %+v, want dedup onto %s", replay, reply.ID)
	}

	// Kill the node that proved the job. The coordinator's replicated
	// index and cached result must answer the retry anyway.
	n.kill()
	deadline := time.Now().Add(10 * time.Second)
	for coord.x.healthyNodes() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead node still counted healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}

	replay2, err := cl.SubmitDetail(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatalf("replay after node death: %v", err)
	}
	if !replay2.Deduplicated || replay2.ID != reply.ID {
		t.Fatalf("post-failover replay = %+v, want dedup onto %s", replay2, reply.ID)
	}
	res2, err := cl.Result(ctx, replay2.ID)
	if err != nil {
		t.Fatalf("replayed result after node death: %v", err)
	}
	if !bytes.Equal(res.Proof, res2.Proof) {
		t.Fatal("replayed proof differs from the original")
	}

	// Same key, different payload: conflict, not silent reuse.
	conflicting := &jobs.Request{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 6,
		IdempotencyKey: "replicated-k1"}
	_, err = cl.SubmitDetail(ctx, conflicting, serverclient.Options{})
	var ae *serverclient.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict || ae.Class != "idempotency_conflict" {
		t.Fatalf("conflicting replay = %v, want 409 idempotency_conflict", err)
	}

	m := coord.Metrics()
	if m.IdempotentHits < 2 || m.IdempotentConflicts < 1 {
		t.Fatalf("idem metrics hits=%d conflicts=%d, want ≥2/≥1", m.IdempotentHits, m.IdempotentConflicts)
	}
}

// TestClusterCancel cancels a queued cluster job through the API and
// checks it lands in the canceled state with the canceled class while
// the job ahead of it still completes.
func TestClusterCancel(t *testing.T) {
	n := startTestNode(t, server.Config{MaxInFlight: 1})
	t.Cleanup(n.kill)

	coord, cl, _ := startCluster(t, fastConfig(n.url))
	waitHealthy(t, coord, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	first, err := cl.Submit(ctx, &jobs.Request{
		Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 14}, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Submit(ctx, &jobs.Request{
		Kind: jobs.KindStark, Workload: "Factorial", LogRows: 6}, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}

	if err := cl.Cancel(ctx, second); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := cl.Status(ctx, second)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "canceled" {
			if st.Class != "canceled" || !st.Retryable {
				t.Fatalf("canceled status = %+v", st)
			}
			break
		}
		if st.State == "done" || st.State == "failed" {
			t.Fatalf("canceled job finished as %s", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if _, err := cl.Wait(ctx, first); err != nil {
		t.Fatalf("uncanceled job: %v", err)
	}
}

// fakeNode is a scripted prover-node API for placement tests: it
// reports a configurable load picture and records which fake received
// the submit.
type fakeNode struct {
	mu       sync.Mutex
	queued   int
	inFlight int64
	submits  int
	res      []byte
	ts       *httptest.Server
}

// replyJSON is the fake node's JSON reply helper.
func replyJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func newFakeNode(t *testing.T, name string, queued int, inFlight int64, res []byte) *fakeNode {
	f := &fakeNode{queued: queued, inFlight: inFlight, res: res}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		replyJSON(w, http.StatusOK, serverclient.Health{
			Status: "ok", Queued: f.queued, InFlight: f.inFlight,
			NodeID: name, StartNS: 1,
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		replyJSON(w, http.StatusOK, serverclient.MetricsSnapshot{
			Queued: f.queued, InFlight: f.inFlight,
		})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.submits++
		f.mu.Unlock()
		replyJSON(w, http.StatusAccepted, serverclient.SubmitReply{ID: "f-1", State: "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/f-1/proof", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(f.res)
	})
	mux.HandleFunc("POST /v1/jobs/f-1/cancel", func(w http.ResponseWriter, r *http.Request) {
		replyJSON(w, http.StatusOK, serverclient.JobStatus{ID: "f-1", State: "canceled"})
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeNode) submitCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.submits
}

// TestClusterLeastLoaded pins placement: with two healthy nodes whose
// probed load differs, the job goes to the emptier one.
func TestClusterLeastLoaded(t *testing.T) {
	req := &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 4}
	res, err := jobs.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := res.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	busy := newFakeNode(t, "busy", 7, 2, raw)
	idle := newFakeNode(t, "idle", 0, 0, raw)

	coord, cl, _ := startCluster(t, fastConfig(busy.ts.URL, idle.ts.URL))
	waitHealthy(t, coord, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	id, err := cl.Submit(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	if got := idle.submitCount(); got != 1 {
		t.Fatalf("idle node got %d submits, want 1", got)
	}
	if got := busy.submitCount(); got != 0 {
		t.Fatalf("busy node got %d submits, want 0", got)
	}
}

// refusingNode is a fake node that answers its probes "ok" and idle and
// refuses every submit with status and class, under Retry-After: 1, as
// a full or draining node does. It counts the submits it refuses.
func refusingNode(t *testing.T, status int, class string) (string, *atomic.Int64) {
	submits := new(atomic.Int64)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		replyJSON(w, http.StatusOK, serverclient.Health{Status: "ok", NodeID: "refusing", StartNS: 1})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		replyJSON(w, http.StatusOK, serverclient.MetricsSnapshot{})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		submits.Add(1)
		w.Header().Set("Retry-After", "1")
		replyJSON(w, status, serverclient.ErrorBody{Error: "refused", Class: class, RetryAfterSeconds: 1})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL, submits
}

// TestBusyNodeReroutesAtOnce: a node that refuses a submit before
// admission ("queue_full" or "draining") costs the job one exchange,
// not the refusal's Retry-After. The refusing node is listed first, so
// the tie in load places the job there; dispatch must see the refusal
// at once and re-route to the real node.
func TestBusyNodeReroutesAtOnce(t *testing.T) {
	req := &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 4}
	for _, tc := range []struct {
		status int
		class  string
	}{
		{http.StatusTooManyRequests, "queue_full"},
		{http.StatusServiceUnavailable, "draining"},
	} {
		t.Run(tc.class, func(t *testing.T) {
			busyURL, submits := refusingNode(t, tc.status, tc.class)
			live := startTestNode(t, server.Config{})
			t.Cleanup(live.kill)
			coord, cl, _ := startCluster(t, fastConfig(busyURL, live.url))
			waitHealthy(t, coord, 2)

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			start := time.Now()
			id, err := cl.Submit(ctx, req, serverclient.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Wait(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			elapsed := time.Since(start)
			if err := jobs.CheckResult(req, res); err != nil {
				t.Fatal(err)
			}
			if got := submits.Load(); got != 1 {
				t.Errorf("refusing node got %d submits, want 1", got)
			}
			if elapsed >= 500*time.Millisecond {
				t.Errorf("job took %v behind a %s refusal, want under 500ms", elapsed, tc.class)
			}
		})
	}
}

// TestClusterEjectionAndReadmission takes a node dark past StaleAfter
// (ejection) and brings the same process back (readmission without an
// epoch change), checking the transition counters and health gating at
// each step.
func TestClusterEjectionAndReadmission(t *testing.T) {
	req := &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 4}
	res, err := jobs.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := res.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// A fake node behind a togglable reject switch: "dark" drops every
	// request at the HTTP layer without changing the node's identity.
	f := newFakeNode(t, "flappy", 0, 0, raw)
	var dark sync.Map
	darkWrap := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, isDark := dark.Load("dark"); isDark {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("no hijacker")
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close() // connection reset, as a dead host would
			}
			return
		}
		f.ts.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(darkWrap.Close)

	coord, _, _ := startCluster(t, fastConfig(darkWrap.URL))
	waitHealthy(t, coord, 1)

	dark.Store("dark", true)
	deadline := time.Now().Add(15 * time.Second)
	for coord.Metrics().Ejections == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dark node was never ejected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if coord.x.healthyNodes() != 0 {
		t.Fatal("ejected node still counted healthy")
	}

	dark.Delete("dark")
	deadline = time.Now().Add(15 * time.Second)
	for coord.Metrics().Readmissions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("recovered node was never readmitted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitHealthy(t, coord, 1)

	m := coord.Metrics()
	if m.Ejections < 1 || m.Readmissions < 1 {
		t.Fatalf("transitions = %d ejections / %d readmissions, want ≥1 each", m.Ejections, m.Readmissions)
	}
	if m.EpochChanges != 0 {
		t.Fatalf("same-process flap recorded %d epoch changes, want 0", m.EpochChanges)
	}
}

// TestStatusForCluster pins the coordinator's extensions to the error
// taxonomy and that node-decided APIErrors pass through unmapped.
func TestStatusForCluster(t *testing.T) {
	cases := []struct {
		err    error
		status int
		class  string
	}{
		{ErrNoHealthyNodes, http.StatusServiceUnavailable, "no_healthy_nodes"},
		{ErrSaturated, http.StatusServiceUnavailable, "cluster_saturated"},
		{jobcore.ErrDraining, http.StatusServiceUnavailable, "draining"},
		{fmt.Errorf("wrapped: %w", ErrNoHealthyNodes), http.StatusServiceUnavailable, "no_healthy_nodes"},
		{&serverclient.APIError{StatusCode: 422, Class: "rejected"}, 422, "rejected"},
		{&serverclient.APIError{StatusCode: 499, Class: "canceled"}, 499, "canceled"},
		{context.Canceled, 499, "canceled"},
	}
	for _, tc := range cases {
		status, class := statusForCluster(tc.err)
		if status != tc.status || class != tc.class {
			t.Errorf("statusForCluster(%v) = %d %q, want %d %q",
				tc.err, status, class, tc.status, tc.class)
		}
	}
}

// TestClusterProofBytesFromNode checks that the coordinator serves the
// node's proof reply as the node sent it: the /proof bodies of the
// cluster job and of the node job it ran as are byte-identical.
func TestClusterProofBytesFromNode(t *testing.T) {
	n := startTestNode(t, server.Config{})
	t.Cleanup(n.kill)
	coord, cl, url := startCluster(t, fastConfig(n.url))
	waitHealthy(t, coord, 1)
	ctx := context.Background()

	req := &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 6}
	id, err := cl.Submit(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	// The node-side job is the one keyed "cluster/<id>"; resubmitting
	// the key finds it.
	nodeReq := *req
	nodeReq.IdempotencyKey = "cluster/" + id
	reply, err := serverclient.New(n.url).SubmitDetail(ctx, &nodeReq, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Deduplicated {
		t.Fatalf("node submit %+v, want a dedup onto the cluster job's node job", reply)
	}
	body := func(u string) []byte {
		t.Helper()
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, %v", u, resp.StatusCode, err)
		}
		return b
	}
	fromCoord := body(url + "/v1/jobs/" + id + "/proof")
	fromNode := body(n.url + "/v1/jobs/" + reply.ID + "/proof")
	if !bytes.Equal(fromCoord, fromNode) {
		t.Fatalf("coordinator /proof (%d bytes) differs from the node's (%d bytes)", len(fromCoord), len(fromNode))
	}
}
