// Package cluster scales the proving service horizontally: the
// job-lifecycle core (internal/jobcore) with a remote executor that
// fronts N unizk-server prover nodes behind the same HTTP job API a
// single node serves, so clients (and cmd/prove -remote) talk to a
// cluster exactly as they would to one server.
//
// The executor's defining property is surviving node failure:
//
//   - Jobs are routed by least-loaded placement over each node's
//     probed /metrics in-flight and queue-wait signals.
//   - Every node is health-probed through the serverclient breaker/retry
//     stack; one whose probes have failed for longer than
//     Config.StaleAfter is ejected (its in-flight attributions are
//     declared lost), and a later successful probe readmits it.
//   - Each node's /healthz identity (node_id, start_ns) is watched for
//     epoch changes: a restarted node at the same address lost its
//     in-memory jobs, so its attributions are invalidated even though
//     the address answers.
//   - Jobs lost to a dead or restarted node are re-dispatched to a
//     healthy one under a stable per-job idempotency key, after a
//     last-chance attempt to recover the original result — so a node
//     kill mid-prove yields exactly one completed proof, bit-identical
//     to direct proving, and a recoverable result is never proved twice.
//
// The idempotency index, proof cache, tenant gate and journal live in
// the core, at the coordinator: a client retry that lands after a
// failover still dedups onto the original cluster job, whose retained
// result replays even when the node that proved it is gone. The
// coordinator refuses with 503 + Retry-After only when every node is
// ejected/unprobed or the cluster is saturated (Config.PendingCap).
package cluster

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"unizk/internal/jobcore"
	"unizk/internal/journal"
	"unizk/internal/serverclient"
	"unizk/internal/tenant"
)

// Rejection sentinels for cluster admission. Both map to a retryable
// 503, in distinct classes so a client can tell "the cluster is full"
// from "the cluster is dead".
var (
	// ErrNoHealthyNodes rejects work while every node is ejected,
	// draining, or has never answered a probe.
	ErrNoHealthyNodes = errors.New("cluster: no healthy prover nodes")
	// ErrSaturated rejects work while the coordinator carries
	// Config.PendingCap unfinished jobs.
	ErrSaturated = errors.New("cluster: saturated, retry later")
)

// statusForCluster layers the coordinator's two refusal classes over
// the shared status table.
func statusForCluster(err error) (int, string) {
	switch {
	case errors.Is(err, ErrNoHealthyNodes):
		return http.StatusServiceUnavailable, "no_healthy_nodes"
	case errors.Is(err, ErrSaturated):
		return http.StatusServiceUnavailable, "cluster_saturated"
	}
	return jobcore.StatusFor(err)
}

// Config sizes the coordinator. The zero value of every field except
// Nodes has a usable default. The fields from MaxRetained through
// SnapshotEvery are the jobcore.Options fields of the same name,
// documented and defaulted there; they are enforced once at the cluster
// edge (nodes behind it see only the coordinator's own submissions).
type Config struct {
	// Nodes lists the base URLs of the prover nodes, e.g.
	// "http://127.0.0.1:8427". At least one is required.
	Nodes []string

	// ProbeInterval is the health/load probe cadence per node (250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe exchange. Default 1s.
	ProbeTimeout time.Duration
	// StaleAfter is how long a node's probes may keep failing before it
	// is ejected and its in-flight jobs are re-dispatched. It must
	// comfortably exceed ProbeInterval; ejection is deliberately
	// conservative because re-dispatching a job whose node is merely
	// slow risks proving it twice. Default 3s.
	StaleAfter time.Duration
	// PollInterval paces result polling for dispatched jobs (25ms).
	PollInterval time.Duration
	// SaturationBackoff is how long a node that refused a submit with
	// queue-full backpressure is skipped by placement. Default 250ms.
	SaturationBackoff time.Duration
	// RecoverTimeout bounds the last-chance result fetch from a node
	// just declared lost, before its job is re-dispatched. Default 2s.
	RecoverTimeout time.Duration
	// PendingCap bounds queued+dispatched cluster jobs; beyond it submits
	// are refused with 503 (ErrSaturated). Default 64 × len(Nodes).
	PendingCap int

	MaxRetained        int
	DefaultTimeout     time.Duration
	MaxTimeout         time.Duration
	RetryAfter         time.Duration
	MaxBodyBytes       int64
	IdempotencyTTL     time.Duration
	MaxIdempotencyKeys int
	CacheEntries       int
	CacheTTL           time.Duration
	CacheVerify        bool
	Tenants            *tenant.Registry

	// Node-client tuning: each node handle gets its own breaker/retry
	// stack built from these; zero values use the serverclient defaults.
	NodeFailureThreshold int
	NodeOpenTimeout      time.Duration
	NodeMaxAttempts      int
	NodeBaseDelay        time.Duration
	NodeMaxDelay         time.Duration

	JournalDir    string
	JournalFsync  journal.Policy
	SnapshotEvery int

	// Seed fixes the node clients' retry jitter for deterministic
	// soaks; 0 seeds from the wall clock.
	Seed int64
	// Transport, when non-nil, is the HTTP transport node clients use —
	// the seam tests inject network chaos through.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	jobcore.Default(&c.ProbeInterval, 250*time.Millisecond)
	jobcore.Default(&c.ProbeTimeout, time.Second)
	jobcore.Default(&c.StaleAfter, 3*time.Second)
	jobcore.Default(&c.PollInterval, 25*time.Millisecond)
	jobcore.Default(&c.SaturationBackoff, 250*time.Millisecond)
	jobcore.Default(&c.RecoverTimeout, 2*time.Second)
	jobcore.Default(&c.PendingCap, 64*len(c.Nodes))
	return c
}

func (c Config) options() jobcore.Options {
	return jobcore.Options{
		IDPrefix:           "c",
		DefaultTimeout:     c.DefaultTimeout,
		MaxTimeout:         c.MaxTimeout,
		RetryAfter:         c.RetryAfter,
		MaxBodyBytes:       c.MaxBodyBytes,
		MaxRetained:        c.MaxRetained,
		IdempotencyTTL:     c.IdempotencyTTL,
		MaxIdempotencyKeys: c.MaxIdempotencyKeys,
		CacheEntries:       c.CacheEntries,
		CacheTTL:           c.CacheTTL,
		CacheVerify:        c.CacheVerify,
		Tenants:            c.Tenants,
		JournalDir:         c.JournalDir,
		JournalFsync:       c.JournalFsync,
		SnapshotEvery:      c.SnapshotEvery,
		Classify:           statusForCluster,
	}
}

// Coordinator fronts the prover nodes. Construct with New; its probers
// are running on return.
type Coordinator struct {
	x *remote
}

// New builds the coordinator, replays its journal when one is
// configured (re-dispatching unfinished jobs under their stable node
// keys), and starts one prober per node.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: Config.Nodes is empty")
	}
	cfg = cfg.withDefaults()
	x := &remote{core: jobcore.New(cfg.options()), cfg: cfg}
	for i, u := range cfg.Nodes {
		x.nodes = append(x.nodes, newNode(u, i, cfg))
	}
	if err := x.core.Open(x); err != nil {
		return nil, err
	}
	for _, n := range x.nodes {
		x.probers.Add(1)
		go x.probeLoop(n)
	}
	return &Coordinator{x: x}, nil
}

// Handler returns the cluster's HTTP API.
func (c *Coordinator) Handler() http.Handler { return c.x.core.Handler() }

// Shutdown drains the coordinator: admission stops, in-flight cluster
// jobs run to completion unless ctx expires first (then they and their
// remote jobs are canceled), and the probers stop. It returns nil on a
// clean drain, ctx.Err() if jobs had to be canceled.
func (c *Coordinator) Shutdown(ctx context.Context) error { return c.x.core.Shutdown(ctx) }

// Metrics is the document GET /metrics serves.
func (c *Coordinator) Metrics() ClusterMetrics {
	return c.x.Metrics(c.x.core.Shared()).(ClusterMetrics)
}

// WaitReady blocks until at least one node is healthy or ctx ends.
func (c *Coordinator) WaitReady(ctx context.Context) error {
	for c.x.healthyNodes() == 0 {
		if !sleepCtx(ctx, c.x.cfg.ProbeInterval/4) {
			return ctx.Err()
		}
	}
	return nil
}

// remote is the jobcore.Executor that runs jobs on prover nodes: one
// prober goroutine per node keeps the roster's health/load picture, one
// watcher goroutine per started job drives it (dispatch.go).
type remote struct {
	core  *jobcore.Core
	cfg   Config
	nodes []*node
	met   metrics

	// active counts started jobs that have not finished; Start refuses
	// fresh jobs beyond Config.PendingCap.
	active   atomic.Int64
	probers  sync.WaitGroup
	watchers sync.WaitGroup
}

// placement is a cluster job's executor state: which node (and which
// of its generations) currently owns the job, the remote job id there,
// and the completion provenance surfaced on status.
type placement struct {
	// restored marks a job admitted in an earlier life and replayed from
	// the journal: PendingCap does not apply to it again.
	restored bool

	mu sync.Mutex
	// A node's generation bumps on ejection and on epoch change, so
	// genAt < node.gen means the attribution is lost.
	//unizklint:guardedby mu
	node *node
	//unizklint:guardedby mu
	genAt int64
	//unizklint:guardedby mu
	remoteID string
	//unizklint:guardedby mu
	doneNodeURL string
	//unizklint:guardedby mu
	doneNodeID string
	//unizklint:guardedby mu
	redispatches int
}

// Prepare refuses fresh work while no node could take it, and attaches
// the job's placement record. For a replayed job it restores the
// completion provenance and credits the pre-crash dispatches as recorded
// re-dispatches, so unique ≤ invocations ≤ unique + re-dispatches holds
// across the restart: a terminal job's D dispatches may have invoked up
// to D proves (D-1 surplus); an unfinished one is re-dispatched on top
// of all D.
func (x *remote) Prepare(j *jobcore.Job, rec *journal.JobRecord) error {
	p := &placement{restored: rec != nil}
	j.Exec = p
	if rec == nil {
		if x.healthyNodes() == 0 {
			x.met.rejectedNoNodes.Add(1)
			return ErrNoHealthyNodes
		}
		return nil
	}
	// Not yet published, but the guarded fields keep their discipline.
	p.mu.Lock()
	defer p.mu.Unlock()
	credit := rec.Dispatches
	if rec.Terminal {
		p.doneNodeURL, p.doneNodeID = rec.DoneNode, rec.DoneNodeID
		credit--
	}
	if credit > 0 {
		p.redispatches = int(credit)
		x.met.redispatches.Add(credit)
	}
	return nil
}

// Start hands the job to a watcher goroutine, unless the coordinator is
// already carrying Config.PendingCap jobs.
func (x *remote) Start(j *jobcore.Job) error {
	p := j.Exec.(*placement)
	if x.active.Add(1) > int64(x.cfg.PendingCap) && !p.restored {
		x.active.Add(-1)
		x.met.rejectedSaturated.Add(1)
		return ErrSaturated
	}
	x.watchers.Add(1)
	go x.watch(j, p)
	return nil
}

// Backlog scales the slowest node's observed median prove latency by
// the pending backlog per healthy node.
func (x *remote) Backlog() time.Duration {
	var p50ms float64
	for _, n := range x.nodes {
		p50ms = max(p50ms, n.proveLatencyP50())
	}
	healthy := max(x.healthyNodes(), 1)
	return time.Duration(float64(x.core.Pending()+1) / float64(healthy) * p50ms * float64(time.Millisecond))
}

// Attribution reports the node (and epoch) that produced the result
// once there is one, else the node the job currently runs on.
func (x *remote) Attribution(j *jobcore.Job) jobcore.Attribution {
	p, _ := j.Exec.(*placement)
	if p == nil {
		return jobcore.Attribution{} // served from cache: never placed
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	at := jobcore.Attribution{Node: p.doneNodeURL, NodeID: p.doneNodeID, Redispatches: p.redispatches}
	if at.Node == "" && p.node != nil {
		at.Node = p.node.url
	}
	return at
}

// Health reports "ok" while every node can take work, "degraded" when
// some are out, 503 "no_healthy_nodes" when none is.
func (x *remote) Health(h *serverclient.Health) int {
	h.Queued = x.core.Pending()
	switch healthy := x.healthyNodes(); {
	case healthy == 0:
		h.Status = "no_healthy_nodes"
		return http.StatusServiceUnavailable
	case healthy < len(x.nodes):
		h.Status = "degraded"
	}
	return http.StatusOK
}

// Drain is a no-op: every started job already has a watcher driving it.
func (x *remote) Drain() {}

func (x *remote) Close() {
	x.watchers.Wait()
	x.probers.Wait()
}

// healthyNodes counts nodes probed at least once, not ejected, not
// draining.
func (x *remote) healthyNodes() int {
	count := 0
	for _, n := range x.nodes {
		if n.healthy() {
			count++
		}
	}
	return count
}

// sleepCtx sleeps d, reporting false when ctx ended the sleep early.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
