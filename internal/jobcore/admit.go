package jobcore

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/proofcache"
	"unizk/internal/serverclient"
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
		ID:       fmt.Sprintf("%s%08d", c.idPrefix, c.nextID.Add(1)),
		Req:      req,
		Priority: priority,
		fp:       fp,
		done:     make(chan struct{}),
		running:  make(chan struct{}),
		owner:    tn,
	}
	if c.cache != nil {
		// The cache answers before the executor is consulted: a hit is
		// served even when nothing could execute a new job.
		j.cacheKey = proofcache.KeyFor(req)
		for {
			res, lj := c.beginFlight(j)
			if res != nil {
				return c.admitCached(j, res)
			}
			if lj == nil {
				break // j leads the flight
			}
			// An identical request leads the flight. Wait until its
			// admission ends, then attach to it if it started, or resolve
			// again if it was abandoned.
			<-lj.admitted
			if _, ok := c.Lookup(lj.ID); ok {
				tn.RecordAdmit()
				return lj, AdmitCoalesced, nil
			}
		}
	}
	if err := tn.AcquireSlot(time.Duration(c.retryAfterSeconds()) * time.Second); err != nil {
		c.abandon(j)
		c.met.rejectedLimited.Add(1)
		return nil, AdmitFresh, err
	}
	j.slotHeld = true
	if err := c.exec.Prepare(j, nil); err != nil {
		c.abandon(j)
		if code, _ := c.classify(err); !serverclient.Retryable(code) {
			// The request, not capacity, is at fault (unknown workload, bad
			// payload shape); capacity refusals are the executor's to count.
			c.met.rejectedInvalid.Add(1)
		}
		return nil, AdmitFresh, err
	}
	switch {
	case timeout > maxTimeout:
		timeout = maxTimeout
	case timeout <= 0:
		timeout = c.opt.DefaultTimeout
	}
	if existing, err := c.register(j, timeout); err != nil || existing != nil {
		return existing, AdmitDeduped, err
	}
	if err := c.exec.Start(j); err != nil {
		c.unregister(j)
		return nil, AdmitFresh, err
	}
	c.met.submitted.Add(1)
	c.endAdmission(j)
	return j, AdmitFresh, nil
}

// beginFlight resolves j's content in the proof cache: a cached result,
// or the leader of the flight already proving it, or (both nil) j as
// the new leader. It runs under c.mu (the cache's lock nests inside it)
// so that a flight's leader is always in c.leaders or c.jobsByID for the
// followers that find its flight.
func (c *Core) beginFlight(j *Job) (*jobs.Encoded, *Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, leaderID, leader := c.cache.Begin(j.cacheKey, j.ID)
	if leader {
		j.cacheLeader = true
		j.admitted = make(chan struct{})
		c.leaders[j.ID] = j
		return nil, nil
	}
	if lj, ok := c.leaders[leaderID]; ok {
		return res, lj
	}
	return res, c.jobsByID[leaderID]
}

// endAdmission releases the followers waiting on a flight leader whose
// admission has ended, started or abandoned. Each admission ends once.
func (c *Core) endAdmission(j *Job) {
	if !j.cacheLeader {
		return
	}
	c.mu.Lock()
	delete(c.leaders, j.ID)
	c.mu.Unlock()
	close(j.admitted)
}

// admitCached mints an already-done job for a proof-cache hit, so every
// surface — status, proof fetch, sync prove, waiters, idempotent
// replays — serves it through the normal lifecycle, with no execution.
// The hit reuses the cached encoding: register journals it as one
// record naming the result, and replies write the same bytes.
func (c *Core) admitCached(j *Job, res *jobs.Encoded) (*Job, AdmitHow, error) {
	// Counted here, not via AcquireSlot: a cached serve claims no slot
	// but is still a submission the tenant had accepted.
	j.owner.RecordAdmit()
	j.mu.Lock()
	j.state, j.res = StateDone, res
	j.mu.Unlock()
	if existing, err := c.register(j, 0); err != nil || existing != nil {
		return existing, AdmitDeduped, err
	}
	c.met.submitted.Add(1)
	c.met.countTerminal(StateDone, nil)
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
		// Aborted first: a follower woken by endAdmission finds the
		// flight gone and resolves the content afresh.
		c.cache.Abort(j.cacheKey, j.ID)
		c.endAdmission(j)
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
// publishes the job; if it cannot, the job is abandoned. A job minted
// done (a cache hit) is finished here: one journal record admits and
// commits it, and it is published straight into the retained set. The
// key is rechecked under the lock: a concurrent duplicate may have registered
// it meanwhile, exactly one of the racing submits admits and binds the
// key to its record, and the loser gets the winner's job back. The
// submission time comes from the core's clock, which idempotency
// expiry reads too. A submit that passed the drain gate just
// before Shutdown flipped it is refused here, so nothing registers
// after Shutdown has seen the pending count reach zero.
func (c *Core) register(j *Job, timeout time.Duration) (existing *Job, err error) {
	j.Timeout = timeout
	j.ctx, j.cancel = c.jobContext(timeout)
	c.mu.Lock()
	now := c.clock()
	c.mu.Unlock()
	j.mu.Lock()
	j.submitted = now
	done := j.state == StateDone
	if done {
		j.finished = j.submitted
		j.cancel()
		close(j.done)
	}
	j.mu.Unlock()
	c.snapMu.RLock()
	defer c.snapMu.RUnlock()
	if err := c.journalAdmitted(j); err != nil {
		c.abandon(j)
		return nil, err
	}
	if c.admitted != nil {
		c.admitted(j)
	}
	key := j.Req.IdempotencyKey
	c.mu.Lock()
	if key != "" {
		existing, err = c.idemLookupLocked(key, j.fp)
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
		c.idemIndex[key] = j
	}
	c.jobsByID[j.ID] = j
	if done {
		c.retireLocked(j.ID)
	} else {
		c.pending++
	}
	c.mu.Unlock()
	return nil, nil
}

// unregister withdraws a never-acknowledged job the executor refused
// to start, superseding its Admitted record so replay skips it.
func (c *Core) unregister(j *Job) {
	c.snapMu.RLock()
	defer c.snapMu.RUnlock()
	c.mu.Lock()
	delete(c.jobsByID, j.ID)
	c.idemDeleteLocked(j)
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
// job's proof-cache flight, publishes the outcome and retires the
// record in one critical section, journals the outcome before any
// waiter is released, and frees the tenant slot. enc is the result,
// encoded and hashed once by the executor (jobs.Encode, or
// jobs.DecodeEncoded over bytes a node sent): the cache, the journal
// and every reply share it. Executors call Finish for every job they
// started; the core calls it for restored jobs the executor refused.
// Cache hits never run it: register finishes them. The retained record
// drops Verify here, after its one use, so it does not pin the compiled
// job it is bound to.
func (c *Core) Finish(j *Job, enc *jobs.Encoded, err error) {
	if err == nil && j.cacheLeader {
		// With verify-on-insert, a proof that fails its own verifier fails
		// the job (and is never cached) instead of fanning out to every
		// coalesced waiter. The cache weighs the result by the job's run
		// (dispatch to now), the time status reports as prove_ms.
		j.mu.Lock()
		run := time.Since(j.started)
		j.mu.Unlock()
		if cerr := c.cache.Complete(j.cacheKey, j.ID, enc, run, c.cacheCheck(j)); cerr != nil {
			enc, err = nil, cerr
		}
	}
	c.snapMu.RLock()
	c.mu.Lock()
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		c.mu.Unlock()
		c.snapMu.RUnlock()
		return
	}
	j.finished = time.Now()
	j.res, j.err = enc, err
	j.Verify = nil
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
	// Retired as it becomes visible: a client that has seen this job
	// end also sees every eviction its retirement caused.
	c.retireLocked(j.ID)
	c.mu.Unlock()
	// Durable before close(j.done) releases waiters: an acknowledged
	// outcome survives a crash.
	c.journalTerminal(j, state, enc, err)
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
	c.mu.Lock()
	c.pending--
	c.mu.Unlock()
	c.poke()
}

// retireLocked keeps a finished job for later queries and evicts the
// oldest beyond the retention bound, idempotency binding included: the
// index only points at live records, so a dedup hit can always replay.
//
//unizklint:holds c.mu
func (c *Core) retireLocked(id string) {
	c.finishedList = append(c.finishedList, id)
	for len(c.finishedList) > c.opt.maxRetained {
		evict := c.finishedList[0]
		c.finishedList = c.finishedList[1:]
		if old, ok := c.jobsByID[evict]; ok {
			c.idemDeleteLocked(old)
			delete(c.jobsByID, evict)
		}
	}
}
