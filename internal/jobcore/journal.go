// Write-ahead journaling and crash recovery. The journal* helpers are
// the only writers of journal records, each called before the
// transition it records is acknowledged. No lock pairs an append with
// its in-memory mutation: snapshotLoop has the journal compact itself
// from its own records. recover runs once in Open, before any request
// is served: it replays snapshot+tail into the retained/pending maps
// and the idempotency index, bumps the persisted epoch, and hands
// unfinished jobs back to the executor. Dispatched records mark
// execution attempts, so a job that was executing at the kill re-runs
// as a *recorded* re-entry.
package jobcore

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/journal"
	"unizk/internal/tenant"
)

// replayedError reconstructs a journaled terminal error so a recovered
// job reports the exact class and status code it was acknowledged with.
type replayedError struct {
	code  int
	class string
	msg   string
}

func (e *replayedError) Error() string { return e.msg }

// journalAdmitted makes the admission, submitted at submitted, durable.
// A failure here fails the admission: the client must never hold an
// acknowledgment the journal cannot replay. A job minted done with res
// (a cache hit) is admitted and committed by one committed record,
// which the journal writes as a committed-ref when the result's bytes
// are already on disk.
func (c *Core) journalAdmitted(j *Job, submitted time.Time, res *jobs.Encoded) error {
	if c.jnl == nil {
		return nil
	}
	raw, err := j.Req.MarshalBinary()
	if err != nil {
		return err
	}
	rec := &journal.Record{
		Type:      journal.TypeAdmitted,
		ID:        j.ID,
		Req:       raw,
		Priority:  int64(j.Priority),
		TimeoutNS: int64(j.Timeout),
		Tenant:    j.owner.Name(),
		TimeNS:    submitted.UnixNano(),
	}
	if res != nil {
		at := c.exec.Attribution(j)
		rec.Type, rec.Result, rec.Sum = journal.TypeCommitted, res.Raw, res.Sum
		rec.Node, rec.NodeID = at.Node, at.NodeID
	}
	return c.jnl.Append(rec)
}

// journalSuperseded marks a job whose Admitted record became durable
// but which was never acknowledged under its own id.
func (c *Core) journalSuperseded(id string) {
	if c.jnl == nil {
		return
	}
	_ = c.jnl.Append(&journal.Record{
		Type:   journal.TypeCanceled,
		ID:     id,
		Class:  journal.ClassSuperseded,
		TimeNS: time.Now().UnixNano(),
	})
}

// journalDispatched records an execution attempt before it is made.
func (c *Core) journalDispatched(id, node string) {
	if c.jnl == nil {
		return
	}
	_ = c.jnl.Append(&journal.Record{Type: journal.TypeDispatched, ID: id, Node: node})
}

// journalTerminal records the terminal outcome before waiters are
// released. A result is named by its digest; the journal writes its
// bytes only when they are not on disk yet.
func (c *Core) journalTerminal(j *Job, state State, res *jobs.Encoded, jerr error) {
	if c.jnl == nil {
		return
	}
	if state == StateDone {
		at := c.exec.Attribution(j)
		_ = c.jnl.Append(&journal.Record{
			Type:   journal.TypeCommitted,
			ID:     j.ID,
			Result: res.Raw,
			Sum:    res.Sum,
			Node:   at.Node,
			NodeID: at.NodeID,
			TimeNS: time.Now().UnixNano(),
		})
		return
	}
	code, class := c.classify(jerr)
	_ = c.jnl.Append(&journal.Record{
		Type:   journal.TypeCanceled,
		ID:     j.ID,
		Class:  class,
		Msg:    jerr.Error(),
		Failed: state == StateFailed,
		Code:   int64(code),
		TimeNS: time.Now().UnixNano(),
	})
}

// recover replays the journal into the retained maps and returns the
// unfinished jobs (those the executor could prepare again; the others
// fail here). It runs single-threaded in Open; c.mu is still held around
// map writes to keep the guard discipline uniform, but never across
// Executor.Prepare.
func (c *Core) recover() ([]*Job, error) {
	st, err := journal.Rebuild(c.jnl)
	if err != nil {
		return nil, err
	}
	c.epoch = st.Epoch + 1
	if err := c.jnl.Append(&journal.Record{Type: journal.TypeEpoch, Epoch: c.epoch}); err != nil {
		return nil, err
	}
	now := time.Now()
	var maxID int64
	var resume []*Job
	// Jobs that committed the same result share one decoded copy.
	results := make(map[[32]byte]*jobs.Encoded)
	for _, id := range st.Order {
		jr := st.Jobs[id]
		if jr == nil {
			continue
		}
		var seq int64
		if _, err := fmt.Sscanf(jr.ID, c.idPrefix+"%d", &seq); err == nil && seq > maxID {
			maxID = seq
		}
		if jr.Terminal && jr.Class == journal.ClassSuperseded {
			// Never acknowledged under its own id; nothing to restore.
			continue
		}
		req := new(jobs.Request)
		if err := req.UnmarshalBinary(jr.Req); err != nil {
			// An undecodable request inside a CRC-valid record is a writer
			// bug, not disk damage; drop the job rather than block startup.
			continue
		}
		j := &Job{
			ID:       jr.ID,
			Req:      req,
			Priority: int(jr.Priority),
			Timeout:  time.Duration(jr.TimeoutNS),
			done:     make(chan struct{}),
			running:  make(chan struct{}),
			owner:    c.tenantByName(jr.Tenant),
		}
		perr := c.exec.Prepare(j, jr)
		c.mu.Lock()
		c.restoreJobLocked(j, jr, now, results)
		c.mu.Unlock()
		switch {
		case jr.Terminal:
		case perr != nil:
			c.Finish(j, nil, perr)
		default:
			resume = append(resume, j)
		}
	}
	c.nextID.Store(maxID)
	return resume, nil
}

// restoreJobLocked publishes one replayed job. Terminal jobs become
// retained records (result/error replayable, idempotent hits land on
// them); unfinished jobs are re-registered as pending with whatever
// deadline budget remains. A keyed job binds its key, overwriting the
// binding of an earlier job in admission order, as a live re-admission
// did; expired and failed bindings drop on their next lookup. No tenant
// slot is re-acquired (the crash released them all) and no cache flight
// restored (cache bodies are deliberately not journaled; the next
// identical submit re-primes).
//
//unizklint:holds c.mu
func (c *Core) restoreJobLocked(j *Job, jr *journal.JobRecord, now time.Time, results map[[32]byte]*jobs.Encoded) {
	// Not yet published, but the guarded fields keep their discipline,
	// in the core's c.mu → j.mu order.
	j.mu.Lock()
	defer j.mu.Unlock()
	j.submitted = time.Unix(0, jr.SubmittedNS)
	j.dispatches = int(jr.Dispatches)
	if jr.Dispatches > 0 {
		j.started = j.submitted
		close(j.running)
	}
	c.met.submitted.Add(1)
	c.jobsByID[jr.ID] = j
	if key := j.Req.IdempotencyKey; key != "" {
		j.fp = sha256.Sum256(jr.Req)
		c.idemIndex[key] = j
	}
	if !jr.Terminal {
		// An already-expired budget gets an epsilon so the job terminates
		// promptly through the normal deadline path.
		rem := time.Duration(0)
		if jr.TimeoutNS > 0 {
			rem = max(time.Duration(jr.TimeoutNS)-now.Sub(j.submitted), time.Millisecond)
		}
		j.ctx, j.cancel = c.jobContext(rem)
		if jr.Dispatches > 0 {
			// The kill interrupted an execution: the re-run is a recorded
			// re-entry.
			j.state = StateRunning
			c.recoveryRedispatches++
		}
		c.recoveredJobs++
		c.pending++
		return
	}

	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.cancel()
	j.finished = time.Unix(0, jr.FinishedNS)
	switch {
	case jr.Canceled:
		j.state, j.err = StateCanceled, replayedErr(jr)
	case jr.Failed:
		j.state, j.err = StateFailed, replayedErr(jr)
	default:
		if res, err := replayedResult(jr, results); err == nil {
			j.state, j.res = StateDone, res
		} else {
			j.state = StateFailed
			j.err = fmt.Errorf("replayed result for %s unreadable: %w", jr.ID, err)
		}
	}
	c.met.countTerminal(j.state, j.err)
	// Waiters park on done (sync-prove dedup attach, SSE): a
	// restored terminal job must present it closed or they hang forever.
	close(j.done)
	c.finishedList = append(c.finishedList, jr.ID)
}

// replayedResult decodes a replayed job's result, once per distinct
// result: memo maps digests to the results already decoded.
func replayedResult(jr *journal.JobRecord, memo map[[32]byte]*jobs.Encoded) (*jobs.Encoded, error) {
	if res, ok := memo[jr.ResultSum]; ok {
		return res, nil
	}
	res, err := jobs.DecodeEncoded(jr.Result, jr.ResultSum)
	if err == nil {
		memo[jr.ResultSum] = res
	}
	return res, err
}

// replayedErr rebuilds a journaled terminal error. Lifecycle classes
// map back to their sentinel errors (so errors.Is keeps working);
// everything else keeps its class and code via replayedError.
func replayedErr(jr *journal.JobRecord) error {
	switch jr.Class {
	case "canceled", "":
		return context.Canceled
	case "deadline":
		return context.DeadlineExceeded
	case "draining":
		return fmt.Errorf("%s: %w", jr.Msg, ErrDraining)
	default:
		return &replayedError{code: int(jr.Code), class: jr.Class, msg: jr.Msg}
	}
}

// tenantByName rebinds a replayed job to its tenant; a tenant that no
// longer exists falls back to the default (the job was already
// admitted — recovery must not re-run admission control).
func (c *Core) tenantByName(name string) *tenant.Tenant {
	for _, tn := range c.opt.Tenants.All() {
		if tn.Name() == name {
			return tn
		}
	}
	return c.opt.Tenants.Default()
}

// snapshotLoop compacts the journal whenever enough records have
// accumulated since the last snapshot, bounding replay cost. The
// journal builds the image from its own records, keeping the unfinished
// jobs and the finished ones the store retains.
func (c *Core) snapshotLoop() {
	defer c.aux.Done()
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-c.base.Done():
			return
		case <-t.C:
		}
		if c.jnl.SnapshotDue() {
			_ = c.jnl.Compact(c.opt.maxRetained)
		}
	}
}
