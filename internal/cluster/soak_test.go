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
	"unizk/internal/jobs"
	"unizk/internal/server"
	"unizk/internal/serverclient"
)

// TestClusterChaosSoak is the acceptance scenario for the fault-tolerant
// cluster: three real prover nodes, each behind its own seeded
// fault-injecting listener, fronted by a coordinator whose node links
// also run through seeded chaos — while concurrent retrying clients
// drive real proof jobs (one request shared under a single idempotency
// key) and node 0 is hard-killed mid-load and restarted on the same
// address.
//
// Invariants pinned:
//   - every job eventually yields a proof bit-identical to a direct,
//     clusterless prove of the same request, kill and all;
//   - clients sharing an idempotency key converge on one cluster job;
//   - exactly-once proving, accounted exactly across node *epochs*:
//     summing ProveInvocations over every epoch (including the killed
//     one, snapshotted post-mortem), the surplus over unique cluster
//     jobs can only be work the kill orphaned — never more than the
//     killed epoch started, and zero across the surviving epochs;
//   - the kill was actually felt: the coordinator detected the epoch
//     change and re-dispatched at least one job;
//   - after drain + close, the goroutine count settles: nothing leaks.
//
// The seed is fixed, so the fault schedule (up to goroutine
// interleaving) reproduces.
func TestClusterChaosSoak(t *testing.T) {
	const (
		seed       = 20250807
		numNodes   = 3
		numClients = 4
		jobsEach   = 4
		killDelay  = 600 * time.Millisecond
		downFor    = 300 * time.Millisecond
	)
	before := runtime.NumGoroutine()
	nodeCfg := server.Config{QueueCap: 64, MaxInFlight: 2}

	// One seeded injector per node, wrapping its listener; a separate
	// injector sits on the coordinator's node links. Probabilities are
	// moderate: the probe/dispatch loops must make progress while every
	// exchange risks a reset, a truncation, a blip, or latency.
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
		srv   *server.Server
		hs    *http.Server
		addr  string
		chaos *netchaos.Chaos
	}
	start := func(chaos *netchaos.Chaos, ln net.Listener) *liveNode {
		s := server.New(nodeCfg)
		hs := &http.Server{Handler: s.Handler()}
		go func() { _ = hs.Serve(chaos.WrapListener(ln)) }()
		return &liveNode{srv: s, hs: hs, addr: ln.Addr().String(), chaos: chaos}
	}
	var nodes []*liveNode
	var urls []string
	for i := 0; i < numNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := start(chaosFor(int64(i)), ln)
		nodes = append(nodes, n)
		urls = append(urls, "http://"+n.addr)
	}

	linkChaos := chaosFor(100)
	innerRT := &http.Transport{}
	coord, err := startFast(Config{
		Nodes:         urls,
		ProbeInterval: 25 * time.Millisecond,
		// Conservative staleness: the planned outage (downFor) is well
		// under StaleAfter, so the kill must be caught by the epoch
		// change, and chaos alone must never eject a live node.
		StaleAfter: time.Second,
		Transport:  linkChaos.WrapTransport(innerRT),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	waitHealthy(t, coord, numNodes)

	// The work matrix: per-client keys plus one request shared by every
	// client under one key, which must converge on a single cluster job.
	// LogRows spread keeps several proofs long enough to straddle the
	// kill while staying affordable under the race detector on a
	// single-core CI host.
	shared := &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 5,
		IdempotencyKey: "csoak-shared"}
	workloads := []string{"Fibonacci", "Factorial", "SHA-256"}
	kinds := []jobs.Kind{jobs.KindPlonk, jobs.KindStark}
	request := func(client, n int) *jobs.Request {
		if n == 0 {
			return shared
		}
		return &jobs.Request{
			Kind:           kinds[(client+n)%len(kinds)],
			Workload:       workloads[(client*jobsEach+n)%len(workloads)],
			LogRows:        8 + (client+n)%3,
			IdempotencyKey: fmt.Sprintf("csoak-c%d-n%d", client, n),
		}
	}

	type proven struct {
		req   *jobs.Request
		id    string
		proof []byte
	}
	results := make([][]proven, numClients)
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	for ci := 0; ci < numClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := serverclient.New(ts.URL)
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

	// The kill/restart cycle: node 0 dies hard mid-load — listener and
	// connections torn down, in-flight proves force-canceled — stays
	// dark for less than StaleAfter, and a fresh process reclaims the
	// same address. Only the healthz epoch change can tell the
	// coordinator what happened.
	killedSrv := nodes[0].srv
	var killedInv int64
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		time.Sleep(killDelay)
		n := nodes[0]
		_ = n.hs.Close()
		kctx, kcancel := context.WithCancel(context.Background())
		kcancel()
		_ = n.srv.Shutdown(kctx)
		killedInv = killedSrv.Metrics().ProveInvocations

		time.Sleep(downFor)
		deadline := time.Now().Add(10 * time.Second)
		for {
			ln, err := net.Listen("tcp", n.addr)
			if err == nil {
				nodes[0] = start(n.chaos, ln)
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("re-listen on %s: %v", n.addr, err)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	wg.Wait()
	<-killDone
	if t.Failed() {
		t.FailNow()
	}

	// Bit-identical to direct proving, and same-id results agree.
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

	// The shared key converged on one cluster job for all clients.
	sharedIDs := map[string]bool{}
	for _, rs := range results {
		sharedIDs[rs[0].id] = true
	}
	if len(sharedIDs) != 1 {
		t.Fatalf("shared idempotency key mapped to %d cluster jobs: %v", len(sharedIDs), sharedIDs)
	}

	// Duplicate-work accounting across node epochs. Each dispatch of a
	// job to a node carries the job's stable node-level idempotency key,
	// so one node process never proves the same job twice no matter how
	// many times the submit is retried against it. Surplus invocations
	// therefore require abandoning a node — every one is paid for by a
	// recorded re-dispatch (the kill, or a spurious ejection when chaos
	// plus a starved scheduler eat probes for a whole StaleAfter
	// window). The sound sandwich: unique ≤ all-epoch invocations ≤
	// unique + re-dispatches, with re-dispatches themselves small.
	cm := coord.Metrics()
	uniqueJobs := int64(len(byID))
	var liveInv int64
	for _, n := range nodes {
		liveInv += n.srv.Metrics().ProveInvocations
	}
	allInv := liveInv + killedInv
	if allInv < uniqueJobs {
		t.Fatalf("invocations across all epochs = %d < %d unique jobs — a proof came from nowhere",
			allInv, uniqueJobs)
	}
	waste := allInv - uniqueJobs
	if waste > cm.Redispatches {
		t.Fatalf("wasted invocations %d exceed the %d recorded re-dispatches — a node proved a job it was never re-dispatched away from (live=%d killed=%d unique=%d)",
			waste, cm.Redispatches, liveInv, killedInv, uniqueJobs)
	}
	if cm.Redispatches >= 2*uniqueJobs {
		t.Fatalf("re-dispatch storm: %d re-dispatches for %d unique jobs", cm.Redispatches, uniqueJobs)
	}
	if cm.EpochChanges == 0 {
		t.Fatalf("coordinator never saw the restart (metrics %+v)", cm)
	}
	if cm.Redispatches == 0 && waste == 0 && cm.Recovered == 0 {
		// The kill must have been felt somehow: jobs moved, results were
		// salvaged, or invocations were orphaned.
		t.Logf("warning: kill left no visible failover trace (timing landed between jobs)")
	}
	if cm.IdempotentHits < int64(numClients-1) {
		t.Fatalf("idempotent hits = %d, want ≥%d from the shared key", cm.IdempotentHits, numClients-1)
	}
	var chaosTotal int64
	for _, n := range nodes {
		chaosTotal += n.chaos.Stats().Total()
	}
	chaosTotal += linkChaos.Stats().Total()
	if chaosTotal == 0 {
		t.Fatal("chaos injected no faults; the soak proved nothing")
	}
	t.Logf("soak: unique jobs %d, invocations live=%d killed-epoch=%d (waste %d), redispatches=%d recovered=%d epoch-changes=%d ejections=%d idem-hits=%d chaos=%d",
		uniqueJobs, liveInv, killedInv, waste, cm.Redispatches, cm.Recovered,
		cm.EpochChanges, cm.Ejections, cm.IdempotentHits, chaosTotal)

	// Drain everything and require the goroutine count to settle.
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := coord.Shutdown(sctx); err != nil {
		t.Fatalf("coordinator drain after soak: %v", err)
	}
	ts.Close()
	for _, n := range nodes {
		if err := n.srv.Shutdown(sctx); err != nil {
			t.Fatalf("node drain after soak: %v", err)
		}
		_ = n.hs.Close()
	}
	innerRT.CloseIdleConnections()
	settleGoroutines(t, before)
}

// soakSubmit retries a submission until it is admitted (or attached to
// an existing job). Any non-retryable error is a bug and fails the
// test.
func soakSubmit(t *testing.T, ctx context.Context, c *serverclient.Client, ci, n int, req *jobs.Request) (string, bool) {
	for {
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

// soakAwait retries result polling until the proof arrives.
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

// soakRetryable is the client-side classification: everything the
// cluster can legitimately answer under chaos and failover must land in
// one of these buckets; anything else fails the soak.
func soakRetryable(err error) bool {
	var te *serverclient.TransportError
	if errors.As(err, &te) {
		return true
	}
	var ae *serverclient.APIError
	return errors.As(err, &ae) && serverclient.Retryable(ae.StatusCode)
}

// settleGoroutines waits for the goroutine count to return near its
// pre-soak level; a leaked watcher, prober, or poller fails here.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
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
