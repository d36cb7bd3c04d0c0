// Package server is the single-node proving service: the job-lifecycle
// core (internal/jobcore — admission, idempotency, journal, HTTP API)
// with a local executor that compiles each admitted job, holds it in a
// bounded queue (internal/jobqueue), and proves it on the shared worker
// pool (internal/parallel) through the ProveContext cancellation
// plumbing. It is the system-level counterpart of the paper's kernel
// mapping (§5): a stream of proof kernels contending for fixed compute,
// with admission control at the front and bounded concurrency at the
// back — concurrent jobs share the pool's workers instead of
// oversubscribing cores, and per-job deadlines, client disconnects, and
// server drain all arrive at the kernels as context cancellation.
//
// Lifecycle: New starts the runners, Handler serves the API, Shutdown
// drains.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"unizk/internal/jobcore"
	"unizk/internal/jobqueue"
	"unizk/internal/jobs"
	"unizk/internal/journal"
	"unizk/internal/parallel"
	"unizk/internal/proofcache"
	"unizk/internal/serverclient"
)

// Config sizes the service. The zero value is usable. The embedded
// jobcore.Options is the service config both tiers share; the three
// fields of its own configure the local executor.
type Config struct {
	jobcore.Options
	// QueueCap bounds the number of queued-but-unstarted jobs; pushes
	// beyond it fail fast with 429 + Retry-After. Default 64.
	QueueCap int
	// MaxInFlight bounds concurrently proving jobs. Each job already
	// fans out across the shared parallel.Pool, so this trades single-job
	// latency against utilization when jobs have serial phases; it does
	// not multiply CPU demand. Default 2.
	MaxInFlight int
	// RegistryBytes is the precompiled-circuit registry's budget: each
	// (kind, workload, logRows) triple compiles once and every later
	// admit derives from the stored base, the bases together keeping at
	// most this many bytes alive. Zero takes
	// proofcache.DefaultRegistryBytes; negative disables the registry.
	RegistryBytes int64

	// testHookRunning, when set by in-package tests, runs after a job
	// transitions to running and before its prover starts.
	testHookRunning func(*jobcore.Job)
}

// Server is the proving service. Construct with New; it is ready (and
// its runners started) on return.
type Server struct {
	x *local
}

// New builds the service and starts its runners. It panics if the
// configured journal directory cannot be opened or replayed — use
// NewDurable to handle that error; without Config.JournalDir, New
// cannot fail.
func New(cfg Config) *Server {
	s, err := NewDurable(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewDurable builds the service, opening and replaying the write-ahead
// journal when Config.JournalDir is set: terminal jobs return as
// retained records (results replayable, idempotency intact), unfinished
// jobs re-enter the queue, and the persisted epoch bumps.
func NewDurable(cfg Config) (*Server, error) {
	jobcore.Default(&cfg.QueueCap, 64)
	jobcore.Default(&cfg.MaxInFlight, 2)
	x := &local{
		core:    jobcore.New("j", jobcore.StatusFor, cfg.Options),
		cfg:     cfg,
		queue:   jobqueue.New[*jobcore.Job](cfg.QueueCap),
		nodeID:  newNodeID(),
		started: time.Now(),
	}
	if cfg.RegistryBytes >= 0 {
		x.registry = proofcache.NewRegistry(cfg.RegistryBytes)
	}
	// The runners start before recovery re-enqueues unfinished jobs, so a
	// full queue at startup drains instead of failing them.
	for i := 0; i < cfg.MaxInFlight; i++ {
		x.runners.Add(1)
		go x.runner()
	}
	if err := x.core.Open(x); err != nil {
		x.Close()
		return nil, err
	}
	return &Server{x: x}, nil
}

// Handler returns the HTTP API; serving the listener is the caller's.
func (s *Server) Handler() http.Handler { return s.x.core.Handler() }

// NodeID is this server epoch's random identity, as on /healthz.
func (s *Server) NodeID() string { return s.x.nodeID }

// StartTime is when this server epoch was constructed, as on /healthz.
func (s *Server) StartTime() time.Time { return s.x.started }

// Shutdown drains the service: admission stops, queued-but-unstarted
// jobs are rejected with the retryable jobcore.ErrDraining, and
// in-flight jobs run to completion unless ctx expires first — then
// their contexts are canceled (which reaches every parallel kernel) and
// Shutdown waits for them to unwind. It returns nil on a clean drain,
// ctx.Err() if jobs had to be canceled.
func (s *Server) Shutdown(ctx context.Context) error { return s.x.core.Shutdown(ctx) }

// Metrics is the document GET /metrics serves.
func (s *Server) Metrics() MetricsSnapshot {
	return s.x.Metrics(s.x.core.Shared()).(MetricsSnapshot)
}

// newNodeID mints the per-epoch identity: 8 random bytes, hex-encoded.
// crypto/rand never feeds a transcript here — the ID exists precisely
// to be different on every process start.
func newNodeID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// No entropy source: a time-derived ID beats refusing to start.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// local is the jobcore.Executor that proves in this process: Prepare
// compiles, Start enqueues, and MaxInFlight runners pop jobs in
// priority-then-FIFO order and prove them on the shared pool.
type local struct {
	core     *jobcore.Core
	cfg      Config
	queue    *jobqueue.Queue[*jobcore.Job]
	registry *proofcache.Registry // nil when disabled
	runners  sync.WaitGroup

	// nodeID and started name this server epoch on /healthz, so a cluster
	// coordinator can detect that a node at a known address restarted and
	// lost its in-memory job state.
	nodeID  string
	started time.Time

	inFlight     atomic.Int64 // currently proving
	rejectedFull atomic.Int64 // submissions refused: queue full
	// proveInvocations counts prover entries, not admissions: the soaks
	// compare it with unique jobs to show retries never prove twice.
	proveInvocations atomic.Int64
	proveLat         latencySampler // running → proved
	queueWait        latencySampler // submitted → running
}

// Prepare compiles the request (through the registry when configured),
// so bad requests are refused at submit time and the runners only
// prove. Restored terminal jobs need no circuit.
func (x *local) Prepare(j *jobcore.Job, rec *journal.JobRecord) error {
	if rec != nil && rec.Terminal {
		return nil
	}
	compile := jobs.Compile
	if x.registry != nil {
		compile = x.registry.JobFor
	}
	compiled, err := compile(j.Req)
	if err != nil {
		return err
	}
	j.Exec, j.Verify = compiled, compiled.Check
	return nil
}

// Start enqueues the job; a full or closed queue refuses it.
func (x *local) Start(j *jobcore.Job) error {
	err := x.queue.Push(j, j.Priority)
	switch {
	case errors.Is(err, jobqueue.ErrFull):
		x.rejectedFull.Add(1)
	case errors.Is(err, jobqueue.ErrClosed):
		err = jobcore.ErrDraining
	}
	return err
}

// runner is the scheduler loop. Pop consults the base context, so a
// forced shutdown (and queue close on drain) stops it.
func (x *local) runner() {
	defer x.runners.Done()
	for {
		j, err := x.queue.Pop(x.core.Base())
		if err != nil {
			return
		}
		x.run(j)
	}
}

// run executes one job to a terminal state.
func (x *local) run(j *jobcore.Job) {
	// A job canceled (or deadline-expired) while queued is finished
	// without proving.
	if err := j.Context().Err(); err != nil {
		x.finish(j, nil, err)
		return
	}
	x.queueWait.add(x.core.Dispatch(j, ""))
	began := time.Now()
	x.inFlight.Add(1)
	if hook := x.cfg.testHookRunning; hook != nil {
		hook(j)
	}
	x.proveInvocations.Add(1)
	res, err := j.Exec.(*jobs.Job).Prove(j.Context())
	x.inFlight.Add(-1)
	var enc *jobs.Encoded
	if err == nil {
		x.proveLat.add(time.Since(began))
		// Encoded and hashed once: the cache, the journal and every reply
		// share these bytes.
		enc = jobs.Encode(res)
	}
	x.finish(j, enc, err)
}

// finish ends a job, dropping its compiled circuit from the record
// first: the record is retained after the job ends and must not pin it.
func (x *local) finish(j *jobcore.Job, enc *jobs.Encoded, err error) {
	j.Exec = nil
	x.core.Finish(j, enc, err)
}

// Backlog scales the observed median prove latency by the queue depth
// per runner. While draining the queue is closed and empty, so the
// estimate switches to the in-flight jobs shutdown is waiting out — the
// soonest this process (restarted) or a sibling could take the retry.
func (x *local) Backlog() time.Duration {
	depth := int64(x.queue.Len())/int64(x.cfg.MaxInFlight) + 1
	if x.core.Draining() {
		depth = x.inFlight.Load() + 1
	}
	return time.Duration(depth) * x.proveLat.quantile(0.50)
}

func (x *local) Attribution(*jobcore.Job) jobcore.Attribution { return jobcore.Attribution{} }

func (x *local) Health(h *serverclient.Health) int {
	h.Queued = x.queue.Len()
	h.InFlight = x.inFlight.Load()
	h.NodeID, h.StartNS = x.nodeID, x.started.UnixNano()
	return http.StatusOK
}

// Drain closes the queue and rejects what it still held.
func (x *local) Drain() {
	for _, j := range x.queue.Close() {
		x.finish(j, nil, fmt.Errorf("job %s was queued at drain: %w", j.ID, jobcore.ErrDraining))
	}
}

func (x *local) Close() { x.runners.Wait() }

func (x *local) Metrics(sh jobcore.Shared) any {
	qs := x.queue.Stats()
	snap := MetricsSnapshot{
		Queued:            qs.Len,
		InFlight:          x.inFlight.Load(),
		JobCounters:       sh.JobCounters,
		RejectedQueueFull: x.rejectedFull.Load(),
		RejectedInvalid:   sh.RejectedInvalid,
		RejectedDraining:  sh.RejectedDraining,
		Workers:           parallel.Workers(),

		ProveInvocations:   x.proveInvocations.Load(),
		IdempotencyMetrics: sh.IdempotencyMetrics,

		QueueHighWater:      qs.HighWater,
		QueueRejectedPushes: qs.RejectedFull + qs.RejectedClosed,

		ProveLatencyP50MS: jobcore.MS(x.proveLat.quantile(0.50)),
		ProveLatencyP99MS: jobcore.MS(x.proveLat.quantile(0.99)),
		QueueWaitP50MS:    jobcore.MS(x.queueWait.quantile(0.50)),
		QueueWaitP99MS:    jobcore.MS(x.queueWait.quantile(0.99)),

		CacheMetrics:  sh.CacheMetrics,
		TenantSection: sh.TenantSection,
		Journal:       sh.Journal,
	}
	if x.registry != nil {
		rs := x.registry.Stats()
		snap.RegistryHits = rs.Hits
		snap.RegistryMisses = rs.Misses
		snap.RegistryCompiles = rs.Compiles
		snap.RegistryEntries = rs.Entries
		snap.RegistryBytes = rs.Bytes
		snap.RegistryEvicted = rs.Evicted
	}
	return snap
}
