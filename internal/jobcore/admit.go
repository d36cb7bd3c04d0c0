package jobcore

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/proofcache"
	"unizk/internal/tenant"
)

// AdmitHow classifies how a submit resolved to its job.
type AdmitHow int

const (
	// AdmitFresh admitted a new job that will execute.
	AdmitFresh AdmitHow = iota
	// AdmitDeduped attached to an existing job via the idempotency key.
	AdmitDeduped
	// AdmitCached was served from the proof cache, minted already done.
	AdmitCached
	// AdmitCoalesced attached to the job already proving this content.
	AdmitCoalesced
)

// Admit resolves a submit on behalf of tn (nil: the default tenant) to
// a job. On error nothing stays registered and the typed error maps to
// an HTTP status. Non-fresh outcomes return an existing (or
// pre-completed) job whose result the caller serves.
//
// The order is cheapest-first: drain gate, tenant rate token, request
// validation, idempotency lookup, proof-cache lookup/flight, tenant
// in-flight slot, Executor.Prepare, journal, register, Executor.Start.
// A rate-limited tenant never costs a compile, a cache hit never takes
// a quota slot, and every refusal after the flight or slot is taken
// gives both back (abandon).
func (c *Core) Admit(req *jobs.Request, priority int, timeout time.Duration, tn *tenant.Tenant) (*Job, AdmitHow, error) {
	if c.draining.Load() {
		return nil, AdmitFresh, ErrDraining
	}
	if tn == nil {
		tn = c.opt.Tenants.Default()
	}
	if err := tn.AllowSubmit(); err != nil {
		c.met.rejectedLimited.Add(1)
		return nil, AdmitFresh, err
	}
	priority = tn.EffectivePriority(priority)
	if err := req.Validate(); err != nil {
		c.met.rejectedInvalid.Add(1)
		return nil, AdmitFresh, err
	}
	var fp fingerprint
	if req.IdempotencyKey != "" {
		raw, err := req.MarshalBinary()
		if err != nil {
			return nil, AdmitFresh, err
		}
		// The fingerprint covers the full encoding, key included, so key
		// reuse with a different payload is detectable as a conflict.
		fp = sha256.Sum256(raw)
		c.mu.Lock()
		existing, err := c.idemLookupLocked(req.IdempotencyKey, fp)
		c.mu.Unlock()
		if err != nil {
			return nil, AdmitFresh, err
		}
		if existing != nil {
			c.met.idemHits.Add(1)
			tn.RecordAdmit()
			return existing, AdmitDeduped, nil
		}
	}
	j := &Job{
		ID:       fmt.Sprintf("%s%08d", c.opt.IDPrefix, c.nextID.Add(1)),
		Req:      req,
		Priority: priority,
		done:     make(chan struct{}),
		running:  make(chan struct{}),
		owner:    tn,
	}
	if c.cache != nil {
		// The cache answers before the executor is consulted: a hit is
		// served even when nothing could execute a new job.
		j.cacheKey = proofcache.KeyFor(req)
		res, leaderID, leader := c.cache.Begin(j.cacheKey, j.ID)
		for i := 0; leaderID != ""; i++ {
			if lj, ok := c.Lookup(leaderID); ok {
				tn.RecordAdmit()
				return lj, AdmitCoalesced, nil
			}
			// The flight exists but its leader is between Begin and register,
			// or its admission failed and the flight is about to clear. Wait
			// a beat and re-resolve; after a bounded wait, prove independently
			// rather than stall on a flight nobody can observe.
			if i >= 500 {
				break
			}
			time.Sleep(2 * time.Millisecond)
			if cur, ok := c.cache.Flight(j.cacheKey); ok && cur == leaderID {
				continue
			}
			res, leaderID, leader = c.cache.Begin(j.cacheKey, j.ID)
		}
		if res != nil {
			return c.admitCached(j, res, fp)
		}
		j.cacheLeader = leader
	}
	if err := tn.AcquireSlot(time.Duration(c.retryAfterSeconds()) * time.Second); err != nil {
		c.abandon(j)
		c.met.rejectedLimited.Add(1)
		return nil, AdmitFresh, err
	}
	j.slotHeld = true
	if err := c.exec.Prepare(j, nil); err != nil {
		c.abandon(j)
		if code, _ := c.opt.Classify(err); !Retryable(code) {
			// The request, not capacity, is at fault (unknown workload, bad
			// payload shape); capacity refusals are the executor's to count.
			c.met.rejectedInvalid.Add(1)
		}
		return nil, AdmitFresh, err
	}
	switch {
	case timeout > c.opt.MaxTimeout:
		timeout = c.opt.MaxTimeout
	case timeout <= 0:
		timeout = c.opt.DefaultTimeout
	}
	if existing, err := c.register(j, fp, timeout); err != nil || existing != nil {
		return existing, AdmitDeduped, err
	}
	if err := c.exec.Start(j); err != nil {
		c.unregister(j)
		return nil, AdmitFresh, err
	}
	c.met.submitted.Add(1)
	return j, AdmitFresh, nil
}

// admitCached mints an already-done job for a proof-cache hit, so every
// surface — status, proof fetch, sync prove, waiters, idempotent
// replays — serves it through the normal lifecycle, with no execution.
func (c *Core) admitCached(j *Job, res *jobs.Result, fp fingerprint) (*Job, AdmitHow, error) {
	// Counted here, not via AcquireSlot: a cached serve claims no slot
	// but is still a submission the tenant had accepted.
	j.owner.RecordAdmit()
	if existing, err := c.register(j, fp, 0); err != nil || existing != nil {
		return existing, AdmitDeduped, err
	}
	c.met.submitted.Add(1)
	c.Finish(j, res, nil)
	return j, AdmitCached, nil
}

// jobContext derives a job context from the base context, with a
// deadline when timeout is positive. The deadline runs from admission:
// a job that waits it out in a queue fails with "deadline" without ever
// executing.
func (c *Core) jobContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(c.base)
	if timeout <= 0 {
		return ctx, cancel
	}
	tctx, tcancel := context.WithTimeout(ctx, timeout)
	return tctx, func() { tcancel(); cancel() }
}

// abandon gives back what a job that will not be acknowledged holds —
// flight leadership, quota slot, context — on every refusal path, so
// the content stays provable and the tenant's slot free.
func (c *Core) abandon(j *Job) {
	if j.cacheLeader {
		c.cache.Abort(j.cacheKey, j.ID)
	}
	if j.slotHeld {
		j.owner.Release()
	}
	if j.cancel != nil {
		j.cancel()
	}
}

// register stamps the job's deadline and submission time, makes the
// admission durable — nothing is acknowledged before that — and
// publishes the job; if it cannot, the job is abandoned. The key is
// rechecked under the lock: a concurrent duplicate may have registered
// it meanwhile, exactly one of the racing submits admits, and the loser
// gets the winner's job back. A submit that passed the drain gate just
// before Shutdown flipped it is refused here, so nothing registers
// after Shutdown has seen the pending count reach zero.
func (c *Core) register(j *Job, fp fingerprint, timeout time.Duration) (existing *Job, err error) {
	j.Timeout = timeout
	j.ctx, j.cancel = c.jobContext(timeout)
	j.mu.Lock()
	j.submitted = time.Now()
	j.mu.Unlock()
	c.snapMu.RLock()
	defer c.snapMu.RUnlock()
	if err := c.journalAdmitted(j); err != nil {
		c.abandon(j)
		return nil, err
	}
	key := j.Req.IdempotencyKey
	c.mu.Lock()
	if key != "" {
		existing, err = c.idemLookupLocked(key, fp)
	}
	if err == nil && existing == nil && c.draining.Load() {
		err = ErrDraining
	}
	if err != nil || existing != nil {
		c.mu.Unlock()
		// The Admitted record is already durable; mark the loser
		// superseded so replay does not resurrect it.
		c.journalSuperseded(j.ID)
		c.abandon(j)
		if existing != nil {
			c.met.idemHits.Add(1)
		}
		return existing, err
	}
	if key != "" {
		c.idemInsertLocked(key, fp, j.ID)
	}
	c.jobsByID[j.ID] = j
	c.pending++
	c.mu.Unlock()
	if key != "" {
		c.journalIdem(key, fp, j.ID)
	}
	return nil, nil
}

// unregister withdraws a never-acknowledged job the executor refused
// to start, superseding its Admitted record so replay skips it.
func (c *Core) unregister(j *Job) {
	c.snapMu.RLock()
	defer c.snapMu.RUnlock()
	c.mu.Lock()
	delete(c.jobsByID, j.ID)
	c.idemDeleteLocked(j.Req.IdempotencyKey, j.ID)
	c.pending--
	c.mu.Unlock()
	c.journalSuperseded(j.ID)
	c.abandon(j)
	c.poke()
}

// poke wakes a Shutdown waiting for the pending count to drop.
func (c *Core) poke() {
	select {
	case c.settled <- struct{}{}:
	default:
	}
}

// Dispatch records that the executor is about to execute the job (on
// node, when remote): the first call moves it to running, and every
// call is durable before the attempt — replay over-counts rather than
// under-counts executions, so a recovered re-run is always a recorded
// one. It returns the job's queue wait.
func (c *Core) Dispatch(j *Job, node string) time.Duration {
	c.snapMu.RLock()
	defer c.snapMu.RUnlock()
	j.mu.Lock()
	if j.started.IsZero() {
		j.started = time.Now()
	}
	if j.state == StateQueued {
		j.state = StateRunning
		close(j.running) // first dispatch only; re-dispatches keep the state
	}
	j.dispatches++
	wait := j.started.Sub(j.submitted)
	j.mu.Unlock()
	c.journalDispatched(j.ID, node)
	return wait
}

// Finish moves a job to its terminal state exactly once: it settles the
// job's proof-cache flight, journals the outcome before any waiter is
// released, frees the tenant slot, and retires the record. Executors
// call it for every job they started; the core calls it for cache hits
// and for restored jobs the executor refused.
func (c *Core) Finish(j *Job, res *jobs.Result, err error) {
	if err == nil && j.cacheLeader {
		// With verify-on-insert, a proof that fails its own verifier fails
		// the job (and is never cached) instead of fanning out to every
		// coalesced waiter.
		if cerr := c.cache.Complete(j.cacheKey, j.ID, res, c.cacheCheck(j)); cerr != nil {
			res, err = nil, cerr
		}
	}
	c.snapMu.RLock()
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		c.snapMu.RUnlock()
		return
	}
	j.finished = time.Now()
	j.res, j.err = res, err
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled):
		j.state = StateCanceled
	default:
		j.state = StateFailed
	}
	state := j.state
	j.mu.Unlock()
	// Durable before close(j.done) releases waiters: an acknowledged
	// outcome survives a crash.
	c.journalTerminal(j, state, res, err)
	c.snapMu.RUnlock()

	c.met.countTerminal(state, err)
	if j.cacheLeader {
		// No-op after a successful Complete; clears the flight on every
		// failure path so the content stays provable by the next submit.
		c.cache.Abort(j.cacheKey, j.ID)
	}
	if j.slotHeld {
		j.owner.Release()
	}
	j.cancel()
	close(j.done)
	c.retire(j)
}

// retire keeps a finished job for later queries and evicts the oldest
// beyond the retention bound, idempotency entry included: the index
// only points at live records, so a dedup hit can always replay.
func (c *Core) retire(j *Job) {
	c.mu.Lock()
	c.pending--
	c.finishedList = append(c.finishedList, j.ID)
	for len(c.finishedList) > c.opt.MaxRetained {
		evict := c.finishedList[0]
		c.finishedList = c.finishedList[1:]
		if old, ok := c.jobsByID[evict]; ok {
			c.idemDeleteLocked(old.Req.IdempotencyKey, evict)
			delete(c.jobsByID, evict)
		}
	}
	c.mu.Unlock()
	c.poke()
}
