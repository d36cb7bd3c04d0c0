// Package jobcore is the job-lifecycle core shared by the single-node
// proving service (internal/server) and the cluster coordinator
// (internal/cluster): the job record and its state machine, the
// retained/pending store, the idempotency index, the cheapest-first
// admission pipeline with its rollbacks, write-ahead journaling and
// crash recovery, the error→HTTP status table, and the seven HTTP
// routes. It is the software form of the paper's thesis (§3–§4): one
// unified substrate, with only the mapping of work onto compute left
// flexible.
//
// That mapping is the Executor: how a registered job gets executed.
// internal/server runs jobs locally (compile, bounded queue, runners on
// the shared worker pool); internal/cluster runs them remotely (node
// roster, placement, submit/await/re-dispatch). Everything a client or
// the journal can observe is decided here, once.
//
// Lock order: snapMu → mu → Job.mu. Every journal append is paired
// with its in-memory mutation under snapMu.RLock; the snapshot writer
// captures state and compacts under snapMu.Lock, so compaction never
// deletes a record whose effect the replacing snapshot lacks.
package jobcore

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/journal"
	"unizk/internal/proofcache"
	"unizk/internal/serverclient"
	"unizk/internal/tenant"
)

// ErrDraining rejects work while (or after) the service drains. It is
// retryable: another replica, or this one restarted, can take the job.
var ErrDraining = errors.New("server draining, retry later")

// Options sizes the core. Every field except IDPrefix has a usable zero
// value; the defaults are applied here and nowhere else.
type Options struct {
	// IDPrefix starts every job id ("j" → j00000001).
	IDPrefix string
	// DefaultTimeout applies to jobs that request no deadline (default
	// 5m, negative means none); MaxTimeout caps requested ones (30m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryAfter is the floor of the computed Retry-After hint (1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies. Default 1<<26.
	MaxBodyBytes int64
	// MaxRetained bounds finished-job records kept for status/result
	// queries and idempotent replays, oldest evicted first (1024).
	MaxRetained int
	// IdempotencyTTL and MaxIdempotencyKeys bound the idempotency index
	// (10m, 4096).
	IdempotencyTTL     time.Duration
	MaxIdempotencyKeys int
	// CacheEntries > 0 enables the content-addressed proof cache (off by
	// default: deployments may rely on every admitted job executing).
	// CacheTTL bounds entry age (0 = proofcache.DefaultTTL); CacheVerify
	// verifies each proof before it is inserted.
	CacheEntries int
	CacheTTL     time.Duration
	CacheVerify  bool
	// Tenants is the API-key/rate/quota registry; nil means only the
	// unlimited default tenant (unauthenticated single-user deployments).
	Tenants *tenant.Registry
	// JournalDir, when non-empty, enables the write-ahead journal: every
	// acknowledged transition is durable first, and a restart on the same
	// directory replays it. JournalFsync defaults to group commit;
	// SnapshotEvery is the compaction cadence in records (0 = journal
	// default, negative = never).
	JournalDir    string
	JournalFsync  journal.Policy
	SnapshotEvery int
	// Classify maps an error to its wire status and class; nil means
	// StatusFor. A tier layers its own refusal classes over StatusFor.
	Classify func(error) (int, string)
}

func (o Options) withDefaults() Options {
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 5 * time.Minute
	}
	Default(&o.MaxTimeout, 30*time.Minute)
	Default(&o.RetryAfter, time.Second)
	Default(&o.MaxBodyBytes, 1<<26)
	Default(&o.MaxRetained, 1024)
	Default(&o.IdempotencyTTL, 10*time.Minute)
	Default(&o.MaxIdempotencyKeys, 4096)
	if o.Classify == nil {
		o.Classify = StatusFor
	}
	if o.Tenants == nil {
		// NewRegistry without configs cannot fail: it only synthesizes
		// the unlimited default tenant.
		o.Tenants, _ = tenant.NewRegistry()
	}
	return o
}

// Default sets a size or duration to d when it is zero or negative.
func Default[T int | int64 | time.Duration](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

// Attribution says where a job runs or ran; the zero value (a local
// executor) keeps the fields off the wire.
type Attribution struct {
	Node, NodeID string
	Redispatches int
}

// Executor is the one tier-specific part of the lifecycle: how a
// registered job is executed. The core calls it; it calls back
// Core.Dispatch before each execution attempt and Core.Finish exactly
// once per started job. A job's Context ends on cancel, deadline and
// forced shutdown, so cancellation needs no method of its own. Prepare
// and Attribution run under core locks and must not call back.
type Executor interface {
	// Prepare attaches the executor's per-job state. rec is nil for a
	// fresh admission, where an error refuses the submit before anything
	// is journaled or acknowledged; during recovery it is the replayed
	// record, and an error fails the restored job.
	Prepare(j *Job, rec *journal.JobRecord) error
	// Start takes over a registered job. An error means the job was not
	// taken (saturation, drain) and the admission is rolled back.
	Start(j *Job) error
	// Backlog estimates how long the current backlog takes to clear, for
	// Retry-After hints; 0 when unknown.
	Backlog() time.Duration
	// Attribution feeds job status and the journal.
	Attribution(j *Job) Attribution
	// Metrics renders the tier's /metrics document around the shared part.
	Metrics(sh Shared) any
	// Health fills the tier's /healthz fields and returns the HTTP
	// status; the core overrides both while draining.
	Health(h *serverclient.Health) int
	// Drain runs once when Shutdown begins, after admission has stopped:
	// work that has not begun executing is rejected with ErrDraining.
	Drain()
	// Close runs once every started job is terminal and the base context
	// is canceled; it returns when the executor's goroutines have exited.
	Close()
}

// Core is the lifecycle core: New, Open(executor), Handler, Shutdown.
type Core struct {
	opt   Options
	exec  Executor
	mux   *http.ServeMux
	cache *proofcache.Cache // nil when disabled
	met   counters

	base      context.Context
	cancelAll context.CancelFunc
	aux       sync.WaitGroup // snapshot loop
	draining  atomic.Bool
	nextID    atomic.Int64
	// settled is poked by every Finish, so Shutdown waits without polling.
	settled chan struct{}

	// jnl is nil without Options.JournalDir. epoch and the recovery
	// counters are written once in Open, before any request is served.
	jnl                  *journal.Journal
	epoch                uint64
	recoveredJobs        int64
	recoveryRedispatches int64

	snapMu sync.RWMutex

	mu sync.Mutex
	//unizklint:guardedby mu
	now func() time.Time // test hook for idempotency TTL expiry; nil means time.Now
	//unizklint:guardedby mu
	jobsByID map[string]*Job
	//unizklint:guardedby mu
	finishedList []string
	// pending counts registered jobs that are not yet terminal.
	//unizklint:guardedby mu
	pending int
	//unizklint:guardedby mu
	idemIndex map[string]*idemEntry
	//unizklint:guardedby mu
	idemOrder []idemOrderEntry
	//unizklint:guardedby mu
	idemSeq uint64
}

// New builds an idle core: no journal is open and nothing is admitted
// until Open attaches the executor.
func New(opt Options) *Core {
	opt = opt.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	c := &Core{
		opt:       opt,
		base:      base,
		cancelAll: cancel,
		settled:   make(chan struct{}, 1),
		jobsByID:  make(map[string]*Job),
		idemIndex: make(map[string]*idemEntry),
	}
	if opt.CacheEntries > 0 {
		c.cache = proofcache.New(proofcache.Config{
			MaxEntries: opt.CacheEntries,
			TTL:        opt.CacheTTL,
			Verify:     opt.CacheVerify,
		})
	}
	c.mux = c.buildMux()
	return c
}

// Open attaches the executor and, with a journal configured, replays
// it: terminal jobs return as retained records, unfinished ones go back
// to the executor, and the persisted epoch bumps. On error the base
// context is canceled, so executor goroutines parked on it exit.
func (c *Core) Open(exec Executor) error {
	c.exec = exec
	if c.opt.JournalDir == "" {
		return nil
	}
	jnl, err := journal.Open(c.opt.JournalDir, journal.Options{
		Fsync:         c.opt.JournalFsync,
		SnapshotEvery: c.opt.SnapshotEvery,
	})
	if err != nil {
		c.cancelAll()
		return err
	}
	c.jnl = jnl
	resume, err := c.recover()
	if err != nil {
		c.cancelAll()
		jnl.Close()
		return err
	}
	c.aux.Add(1)
	go c.snapshotLoop()
	for _, j := range resume {
		if err := exec.Start(j); err != nil {
			// Retryable, like every other not-executed rejection.
			c.Finish(j, nil, fmt.Errorf("job %s could not be resumed after recovery: %v: %w", j.ID, err, ErrDraining))
		}
	}
	return nil
}

// Handler returns the HTTP API; the listener is the caller's.
func (c *Core) Handler() http.Handler { return c.mux }

// Base is the context every job context derives from; it ends when
// Shutdown is done (or gives up) waiting for jobs.
func (c *Core) Base() context.Context { return c.base }

// Draining reports whether Shutdown has begun.
func (c *Core) Draining() bool { return c.draining.Load() }

// Pending counts registered jobs that are not yet terminal.
func (c *Core) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending
}

// Lookup returns a registered job by id.
func (c *Core) Lookup(id string) (*Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobsByID[id]
	return j, ok
}

// clock reads the injected time source; idempotency TTL expiry goes
// through it so tests drive expiry deterministically.
//
//unizklint:holds c.mu
func (c *Core) clock() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

// Shutdown drains the service: admission stops, the executor rejects
// what has not begun executing, and started jobs run to completion
// unless ctx expires first — then every job context is canceled and
// Shutdown waits for the jobs to unwind. It returns nil on a clean
// drain, ctx.Err() if jobs had to be canceled.
func (c *Core) Shutdown(ctx context.Context) error {
	c.draining.Store(true)
	c.exec.Drain()
	var forced error
	for c.Pending() > 0 {
		select {
		case <-c.settled:
		case <-ctx.Done():
			// Canceled jobs unwind promptly; from here only settled wakes
			// the loop (Background's Done channel is nil).
			forced = ctx.Err()
			c.cancelAll()
			ctx = context.Background()
		}
	}
	c.cancelAll()
	c.exec.Close()
	if c.jnl != nil {
		// Every appender is done; a clean close fsyncs the tail.
		c.aux.Wait()
		_ = c.jnl.Close()
	}
	return forced
}

// retryAfterSeconds is the backpressure hint for 429/503 replies: the
// larger of the floor and the executor's backlog estimate, in [1, 60].
func (c *Core) retryAfterSeconds() int {
	return min(ceilSeconds(max(c.opt.RetryAfter, c.exec.Backlog())), 60)
}

// cacheCheck returns the verify-on-insert hook for a flight leader, nil
// when verification is off.
func (c *Core) cacheCheck(j *Job) func(*jobs.Result) error {
	switch {
	case !c.opt.CacheVerify:
		return nil
	case j.Verify != nil:
		return j.Verify
	default:
		return func(res *jobs.Result) error { return jobs.CheckResult(j.Req, res) }
	}
}
