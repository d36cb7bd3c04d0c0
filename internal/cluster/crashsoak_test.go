package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"unizk/internal/faultinject/netchaos"
	"unizk/internal/jobcore"
	"unizk/internal/jobs"
	"unizk/internal/server"
	"unizk/internal/serverclient"
)

// TestMain lets the test binary double as the coordinator subprocess
// for the crash soak: with UNIZK_CRASH_COORD set, the process is a
// journaled coordinator the parent test can SIGKILL for real.
func TestMain(m *testing.M) {
	if os.Getenv("UNIZK_CRASH_COORD") != "" {
		crashCoordMain()
		return
	}
	os.Exit(m.Run())
}

// crashCoordMain is the coordinator subprocess: a journaled coordinator
// whose node links run through seeded chaos, serving until SIGKILLed by
// the parent (or drained on SIGTERM, for the soak's final clean exit).
func crashCoordMain() {
	dir := os.Getenv("UNIZK_CRASH_COORD")
	addr := os.Getenv("UNIZK_CRASH_ADDR")
	portfile := os.Getenv("UNIZK_CRASH_PORTFILE")
	nodes := strings.Split(os.Getenv("UNIZK_CRASH_NODES"), ",")
	seed, _ := strconv.ParseInt(os.Getenv("UNIZK_CRASH_SEED"), 10, 64)

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crash-coord:", err)
		os.Exit(1)
	}
	linkChaos := netchaos.New(netchaos.Config{
		Seed:         seed + 100,
		ReqResetProb: 0.05,
		TruncateProb: 0.05,
		BlipProb:     0.05,
	})
	coord, err := startFast(Config{
		Nodes:         nodes,
		ProbeInterval: 25 * time.Millisecond,
		StaleAfter:    time.Second,
		Transport:     linkChaos.WrapTransport(&http.Transport{}),
		Options:       jobcore.Options{JournalDir: dir},
	})
	if err != nil {
		fail(err)
	}
	// The predecessor's port can linger for an instant after the kill.
	var ln net.Listener
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fail(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := os.WriteFile(portfile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
		fail(err)
	}
	hs := &http.Server{Handler: coord.Handler()}
	go func() { _ = hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	<-sig
	dctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = coord.Shutdown(dctx)
	_ = hs.Shutdown(dctx)
	os.Exit(0)
}

// crashCoord is one coordinator subprocess life.
type crashCoord struct {
	cmd  *exec.Cmd
	addr string
	url  string
}

// spawnCrashCoord starts a coordinator life on addr (or an ephemeral
// port for "127.0.0.1:0") over the given journal dir, and waits for it
// to report its bound address.
func spawnCrashCoord(t *testing.T, dir, addr string, urls []string, seed int64, life int) *crashCoord {
	t.Helper()
	portfile := filepath.Join(t.TempDir(), fmt.Sprintf("port-%d", life))
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"UNIZK_CRASH_COORD="+dir,
		"UNIZK_CRASH_ADDR="+addr,
		"UNIZK_CRASH_PORTFILE="+portfile,
		"UNIZK_CRASH_NODES="+strings.Join(urls, ","),
		"UNIZK_CRASH_SEED="+strconv.FormatInt(seed, 10),
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("life %d: start coordinator: %v", life, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		raw, err := os.ReadFile(portfile)
		if err == nil && len(raw) > 0 {
			bound := strings.TrimSpace(string(raw))
			return &crashCoord{cmd: cmd, addr: bound, url: "http://" + bound}
		}
		if cmd.ProcessState != nil || time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("life %d: coordinator never reported its address", life)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sigkill hard-kills the coordinator process — the real thing, not a
// simulated drain — and reaps it.
func (cc *crashCoord) sigkill() {
	_ = cc.cmd.Process.Kill()
	_ = cc.cmd.Wait()
}

// clusterMetrics fetches and decodes the coordinator's GET /metrics.
func clusterMetrics(ctx context.Context, url string) (*ClusterMetrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := new(ClusterMetrics)
	if err := json.Unmarshal(raw, m); err != nil {
		return nil, err
	}
	return m, nil
}

// TestCrashRecoverySoak is the acceptance scenario for durable
// coordinator state: a journaled coordinator subprocess fronting three
// chaos-wrapped prover nodes is SIGKILLed mid-load and restarted on the
// same journal directory and address — twice, the second time onto a
// journal whose tail the test has torn.
//
// Invariants pinned:
//   - zero acknowledged jobs lost: every id acked before the kill
//     resolves after recovery, with a proof bit-identical to a direct,
//     clusterless prove;
//   - exactly-once accounting across the crash: unique jobs ≤ prove
//     invocations ≤ unique jobs + recorded re-dispatches (the journal's
//     Dispatched records make every possible duplicate a *recorded*
//     re-dispatch under the stable node-level dedup keys);
//   - the persisted epoch increments per life and is observable on
//     /healthz;
//   - a torn journal tail is truncated and counted, never a failed
//     startup;
//   - after the final clean drain, the parent's goroutine count
//     settles.
//
// The seed is fixed, so the fault schedule (up to goroutine
// interleaving) reproduces.
func TestCrashRecoverySoak(t *testing.T) {
	const (
		seed       = 20250807
		numNodes   = 3
		numClients = 3
		jobsEach   = 3
	)
	before := runtime.NumGoroutine()

	// Prover nodes live in the parent (they are not the crash subject),
	// each behind its own seeded fault injector.
	// Listener-class faults only: the transport-class ones (resets,
	// blips, truncation) ride the coordinator subprocess's own link
	// chaos, seeded via UNIZK_CRASH_SEED.
	nodeChaos := func(i int64) *netchaos.Chaos {
		return netchaos.New(netchaos.Config{
			Seed:            seed + i,
			AcceptDelayProb: 0.10,
			ConnDelayProb:   0.05,
			ConnResetProb:   0.01,
			MaxDelay:        2 * time.Millisecond,
		})
	}
	type liveNode struct {
		srv   *server.Server
		hs    *http.Server
		chaos *netchaos.Chaos
	}
	var nodes []*liveNode
	var urls []string
	for i := 0; i < numNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := server.New(server.Config{QueueCap: 64, MaxInFlight: 2})
		hs := &http.Server{Handler: s.Handler()}
		chaos := nodeChaos(int64(i))
		go func() { _ = hs.Serve(chaos.WrapListener(ln)) }()
		nodes = append(nodes, &liveNode{srv: s, hs: hs, chaos: chaos})
		urls = append(urls, "http://"+ln.Addr().String())
	}

	dir := t.TempDir()
	life1 := spawnCrashCoord(t, dir, "127.0.0.1:0", urls, seed, 1)
	killGuard := life1
	t.Cleanup(func() { killGuard.sigkill() })

	// The work matrix: per-client keys plus one request shared by all
	// clients, which must converge on one cluster job across the crash.
	shared := &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 5,
		IdempotencyKey: "crashsoak-shared"}
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
			IdempotencyKey: fmt.Sprintf("crashsoak-c%d-n%d", client, n),
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()
	newClient := func(ci int) *serverclient.Client {
		c := serverclient.New(life1.url)
		c.Retry = &serverclient.RetryPolicy{
			MaxAttempts: 6,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    100 * time.Millisecond,
			Seed:        seed + int64(ci) + 1,
		}
		return c
	}

	// Phase 1: every client submits its full batch and records the acked
	// ids. Everything acknowledged here must survive the kill.
	type acked struct {
		req *jobs.Request
		id  string
	}
	ackedJobs := make([][]acked, numClients)
	var submitWG sync.WaitGroup
	for ci := 0; ci < numClients; ci++ {
		submitWG.Add(1)
		go func(ci int) {
			defer submitWG.Done()
			c := newClient(ci)
			for n := 0; n < jobsEach; n++ {
				req := request(ci, n)
				id, ok := soakSubmit(t, ctx, c, ci, n, req)
				if !ok {
					return
				}
				ackedJobs[ci] = append(ackedJobs[ci], acked{req: req, id: id})
			}
		}(ci)
	}
	submitWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Phase 2: clients wait for their proofs while the parent waits for
	// the load to be demonstrably mid-flight — some jobs terminal, some
	// not — and then delivers the SIGKILL.
	proofs := make([]map[string][]byte, numClients)
	var waitWG sync.WaitGroup
	for ci := 0; ci < numClients; ci++ {
		proofs[ci] = make(map[string][]byte)
		waitWG.Add(1)
		go func(ci int) {
			defer waitWG.Done()
			c := newClient(ci)
			for n, a := range ackedJobs[ci] {
				proof, ok := soakAwait(t, ctx, c, ci, n, a.id)
				if !ok {
					return
				}
				proofs[ci][a.id] = proof
			}
		}(ci)
	}

	midLoad := time.Now().Add(30 * time.Second)
	for {
		m, err := clusterMetrics(ctx, life1.url)
		if err == nil && m.Completed >= 2 && m.Pending >= 1 {
			break
		}
		if time.Now().After(midLoad) {
			t.Fatal("load never reached the mid-flight shape (some done, some pending)")
		}
		time.Sleep(10 * time.Millisecond)
	}
	life1.sigkill()

	// Life 2: same journal, same address. Recovery must replay the
	// retained results, re-dispatch the in-flight jobs under their
	// stable dedup keys, and let every blocked Wait finish.
	life2 := spawnCrashCoord(t, dir, life1.addr, urls, seed+1, 2)
	killGuard = life2
	waitWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Zero acknowledged jobs lost, proofs bit-identical to direct.
	direct := map[string][]byte{}
	byID := map[string][]byte{}
	for ci := 0; ci < numClients; ci++ {
		if len(proofs[ci]) != len(ackedJobs[ci]) || len(ackedJobs[ci]) != jobsEach {
			t.Fatalf("client %d: %d acked, %d proven, want %d of each",
				ci, len(ackedJobs[ci]), len(proofs[ci]), jobsEach)
		}
		for _, a := range ackedJobs[ci] {
			proof := proofs[ci][a.id]
			sig := fmt.Sprintf("%s|%s|%d", a.req.Kind, a.req.Workload, a.req.LogRows)
			want, ok := direct[sig]
			if !ok {
				d, err := proveDirect(context.Background(), a.req)
				if err != nil {
					t.Fatalf("direct prove %s: %v", sig, err)
				}
				want = d.Proof
				direct[sig] = want
			}
			if !bytes.Equal(proof, want) {
				t.Fatalf("client %d job %s (%s): proof differs from direct prove across the crash", ci, a.id, sig)
			}
			if prev, ok := byID[a.id]; ok && !bytes.Equal(prev, proof) {
				t.Fatalf("job %s returned different proof bytes to different clients", a.id)
			}
			byID[a.id] = proof
		}
	}

	// The shared key converged on one job, crash and all.
	sharedIDs := map[string]bool{}
	for ci := 0; ci < numClients; ci++ {
		sharedIDs[ackedJobs[ci][0].id] = true
	}
	if len(sharedIDs) != 1 {
		t.Fatalf("shared idempotency key mapped to %d cluster jobs: %v", len(sharedIDs), sharedIDs)
	}

	// Epoch observability: life 2 replays epoch 1 and serves epoch 2.
	cl2 := serverclient.New(life2.url)
	h, err := cl2.Health(ctx)
	if err != nil {
		t.Fatalf("life 2 healthz: %v", err)
	}
	if h.Epoch != 2 {
		t.Fatalf("life 2 epoch = %d, want 2", h.Epoch)
	}

	// Exactly-once accounting across the crash. Node-level dedup keys
	// are stable across coordinator lives, so a node that proved a job
	// before the kill absorbs its replayed submit. Any surplus prove
	// invocation requires moving a job between nodes — and the journal
	// makes every such move a recorded re-dispatch.
	m2, err := clusterMetrics(ctx, life2.url)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Journal == nil {
		t.Fatal("life 2 metrics have no journal section")
	}
	if m2.Journal.RecoveredJobs == 0 {
		t.Fatalf("kill landed mid-load but recovery restored no pending jobs (journal %+v)", m2.Journal)
	}
	unique := int64(len(byID))
	var invocations int64
	for _, n := range nodes {
		invocations += n.srv.Metrics().ProveInvocations
	}
	if invocations < unique {
		t.Fatalf("invocations %d < %d unique jobs — a proof came from nowhere", invocations, unique)
	}
	waste := invocations - unique
	if waste > m2.Redispatches {
		t.Fatalf("wasted invocations %d exceed the %d recorded re-dispatches (unique=%d invocations=%d journal=%+v)",
			waste, m2.Redispatches, unique, invocations, m2.Journal)
	}
	var chaosTotal int64
	for _, n := range nodes {
		chaosTotal += n.chaos.Stats().Total()
	}
	if chaosTotal == 0 {
		t.Fatal("chaos injected no faults; the soak proved nothing")
	}
	t.Logf("crash soak: unique=%d invocations=%d waste=%d redispatches=%d recovered=%d recovery-redispatches=%d replayed-records=%d chaos=%d",
		unique, invocations, waste, m2.Redispatches,
		m2.Journal.RecoveredJobs, m2.Journal.RecoveryRedispatches,
		m2.Journal.RecordsReplayed, chaosTotal)

	// Phase 3: kill life 2, tear the journal tail the way an interrupted
	// write would, and require life 3 to start by truncating — loudly,
	// not fatally — and to keep the retained results.
	life2.sigkill()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments in %s (err=%v)", dir, err)
	}
	sort.Strings(segs)
	tail, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x00, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	_ = tail.Close()

	life3 := spawnCrashCoord(t, dir, life1.addr, urls, seed+2, 3)
	killGuard = life3
	cl3 := serverclient.New(life3.url)
	// HealthAny, not Health: life 3 may answer before its first node
	// probe lands, and that 503 "no_healthy_nodes" still carries the epoch.
	h3, _, err := cl3.HealthAny(ctx)
	if err != nil {
		t.Fatalf("life 3 healthz after torn tail: %v", err)
	}
	if h3.Epoch != 3 {
		t.Fatalf("life 3 epoch = %d, want 3", h3.Epoch)
	}
	m3, err := clusterMetrics(ctx, life3.url)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Journal == nil || m3.Journal.TruncatedTails == 0 {
		t.Fatalf("life 3 journal metrics = %+v, want a counted truncated tail", m3.Journal)
	}
	for id, want := range byID {
		res, err := cl3.Result(ctx, id)
		if err != nil {
			t.Fatalf("life 3: replayed result %s: %v", id, err)
		}
		if !bytes.Equal(res.Proof, want) {
			t.Fatalf("life 3: job %s proof changed across torn-tail recovery", id)
		}
	}

	// Final life drains cleanly on SIGTERM — recovery did not wedge
	// shutdown.
	if err := life3.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := life3.cmd.Wait(); err != nil {
		t.Fatalf("life 3 did not drain cleanly: %v", err)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	for _, n := range nodes {
		if err := n.srv.Shutdown(sctx); err != nil {
			t.Fatalf("node drain after soak: %v", err)
		}
		_ = n.hs.Close()
	}
	settleGoroutines(t, before)
}
