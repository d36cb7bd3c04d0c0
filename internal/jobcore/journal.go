// Write-ahead journaling and crash recovery. The journal* helpers are
// the only writers of journal records; every caller pairs the append
// with its in-memory mutation under c.snapMu.RLock. recover runs once
// in Open, before any request is served: it replays snapshot+tail into
// the retained/pending maps and the idempotency index, bumps the
// persisted epoch, and hands unfinished jobs back to the executor.
// Dispatched records mark execution attempts, so a job that was
// executing at the kill re-runs as a *recorded* re-entry.
package jobcore

import (
	"context"
	"fmt"
	"sort"
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

// journalAdmitted makes the admission durable. A failure here fails the
// admission: the client must never hold an acknowledgment the journal
// cannot replay.
func (c *Core) journalAdmitted(j *Job) error {
	if c.jnl == nil {
		return nil
	}
	raw, err := j.Req.MarshalBinary()
	if err != nil {
		return err
	}
	j.mu.Lock()
	submitted := j.submitted
	j.mu.Unlock()
	return c.jnl.Append(&journal.Record{
		Type:      journal.TypeAdmitted,
		ID:        j.ID,
		Req:       raw,
		Priority:  int64(j.Priority),
		TimeoutNS: int64(j.Timeout),
		Tenant:    j.owner.Name(),
		TimeNS:    submitted.UnixNano(),
	})
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

// journalIdem makes an idempotency binding durable. Best-effort: losing
// it costs a replayed dedup after a crash, never a wrong answer.
func (c *Core) journalIdem(key string, fp fingerprint, jobID string) {
	if c.jnl == nil {
		return
	}
	_ = c.jnl.Append(&journal.Record{
		Type:   journal.TypeIdem,
		Key:    key,
		FP:     fp,
		ID:     jobID,
		TimeNS: time.Now().Add(c.opt.IdempotencyTTL).UnixNano(),
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
// released.
func (c *Core) journalTerminal(j *Job, state State, res *jobs.Result, jerr error) {
	if c.jnl == nil {
		return
	}
	id := j.ID
	if state == StateDone {
		at := c.exec.Attribution(j)
		raw, err := res.MarshalBinary()
		if err == nil {
			_ = c.jnl.Append(&journal.Record{
				Type:   journal.TypeCommitted,
				ID:     id,
				Result: raw,
				Node:   at.Node,
				NodeID: at.NodeID,
				TimeNS: time.Now().UnixNano(),
			})
			return
		}
		// A result that cannot round-trip cannot be replayed; record the
		// job as failed so a recovered process is honest about it.
		jerr = fmt.Errorf("result for %s unmarshalable: %w", id, err)
		state = StateFailed
	}
	code, class := c.opt.Classify(jerr)
	_ = c.jnl.Append(&journal.Record{
		Type:   journal.TypeCanceled,
		ID:     id,
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
	for _, id := range st.Order {
		jr := st.Jobs[id]
		if jr == nil {
			continue
		}
		var seq int64
		if _, err := fmt.Sscanf(jr.ID, c.opt.IDPrefix+"%d", &seq); err == nil && seq > maxID {
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
		c.restoreJobLocked(j, jr, now)
		c.mu.Unlock()
		switch {
		case jr.Terminal:
		case perr != nil:
			c.Finish(j, nil, perr)
		default:
			resume = append(resume, j)
		}
	}
	c.mu.Lock()
	for _, e := range st.Idem {
		exp := time.Unix(0, e.ExpiresNS)
		if _, ok := c.jobsByID[e.JobID]; ok && exp.After(now) {
			c.idemBindLocked(e.Key, e.FP, e.JobID, exp)
		}
	}
	c.mu.Unlock()
	c.nextID.Store(maxID)
	return resume, nil
}

// restoreJobLocked publishes one replayed job. Terminal jobs become
// retained records (result/error replayable, idempotent hits land on
// them); unfinished jobs are re-registered as pending with whatever
// deadline budget remains. No tenant slot is re-acquired (the crash
// released them all) and no cache flight restored (cache bodies are
// deliberately not journaled; the next identical submit re-primes).
//
//unizklint:holds c.mu
func (c *Core) restoreJobLocked(j *Job, jr *journal.JobRecord, now time.Time) {
	// Not yet published, but the guarded fields keep their discipline;
	// c.mu → j.mu matches captureState.
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
		j.res = new(jobs.Result)
		if err := j.res.UnmarshalBinary(jr.Result); err == nil {
			j.state = StateDone
		} else {
			j.state, j.res = StateFailed, nil
			j.err = fmt.Errorf("replayed result for %s unreadable: %w", jr.ID, err)
		}
	}
	c.met.countTerminal(j.state, j.err)
	// Waiters park on done (sync-prove dedup attach, long-poll, SSE): a
	// restored terminal job must present it closed or they hang forever.
	close(j.done)
	c.finishedList = append(c.finishedList, jr.ID)
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
// accumulated since the last snapshot, bounding replay cost.
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
			// snapMu.Lock excludes every append+mutate pair, so the captured
			// state covers everything the compacted segments held.
			c.snapMu.Lock()
			_ = c.jnl.WriteSnapshot(c.captureState())
			c.snapMu.Unlock()
		}
	}
}

// captureState builds the snapshot image. Callers hold c.snapMu.Lock.
func (c *Core) captureState() *journal.State {
	st := journal.NewState()
	st.Epoch = c.epoch
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.jobsByID))
	for id := range c.jobsByID {
		ids = append(ids, id)
	}
	// Job ids are zero-padded, so lexicographic order is admission order.
	sort.Strings(ids)
	for _, id := range ids {
		j := c.jobsByID[id]
		raw, err := j.Req.MarshalBinary()
		if err != nil {
			continue
		}
		at := c.exec.Attribution(j)
		jr := &journal.JobRecord{
			ID:        j.ID,
			Req:       raw,
			Priority:  int64(j.Priority),
			TimeoutNS: int64(j.Timeout),
			Tenant:    j.owner.Name(),
			Node:      at.Node,
		}
		j.mu.Lock()
		jr.SubmittedNS = j.submitted.UnixNano()
		jr.Dispatches = int64(j.dispatches)
		if j.state.terminal() {
			jr.Terminal = true
			jr.FinishedNS = j.finished.UnixNano()
		}
		switch j.state {
		case StateDone:
			jr.DoneNode, jr.DoneNodeID = at.Node, at.NodeID
			if raw, err := j.res.MarshalBinary(); err == nil {
				jr.Result = raw
			}
		case StateFailed, StateCanceled:
			jr.Failed = j.state == StateFailed
			jr.Canceled = j.state == StateCanceled
			if j.err != nil {
				code, class := c.opt.Classify(j.err)
				jr.Class, jr.Code, jr.Msg = class, int64(code), j.err.Error()
			}
		}
		j.mu.Unlock()
		st.Jobs[id] = jr
		st.Order = append(st.Order, id)
	}
	for key, e := range c.idemIndex {
		st.Idem = append(st.Idem, journal.IdemRecord{
			Key:       key,
			FP:        e.fp,
			JobID:     e.jobID,
			ExpiresNS: e.expires.UnixNano(),
		})
	}
	sort.Slice(st.Idem, func(a, b int) bool { return st.Idem[a].Key < st.Idem[b].Key })
	return st
}
