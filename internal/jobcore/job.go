package jobcore

import (
	"context"
	"sync"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/proofcache"
	"unizk/internal/tenant"
)

// State is a job's lifecycle position. Jobs only move forward:
// queued → running → one of done/failed/canceled, or queued straight to
// a terminal state (canceled in queue, drained, served from cache).
type State int

const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
)

// String is the wire name of the state.
func (s State) String() string {
	return [...]string{"queued", "running", "done", "failed", "canceled"}[s]
}

func (s State) terminal() bool { return s >= StateDone }

// holding is a set of what an admission holds (Job.holds).
type holding uint8

const (
	holdsSlot   holding = 1 << iota // a tenant in-flight slot
	holdsRecord                     // a durable Admitted record
)

// Job is one admitted proof job and its mutable lifecycle record. The
// exported fields are immutable once the job is registered, except that
// Exec and Verify are dropped when the job ends (below).
type Job struct {
	ID       string
	Req      *jobs.Request
	Priority int
	Timeout  time.Duration

	// Exec is the executor's per-job state (a compiled circuit, a
	// placement record), attached in Executor.Prepare. Verify, when set
	// there, is the cheap verify-on-insert check for the proof cache; nil
	// falls back to jobs.CheckResult. Finish clears Verify after its one
	// use, and an executor whose Exec holds a compiled circuit clears it
	// once the job no longer needs it: a finished record is retained for
	// queries, and must not pin its circuit.
	Exec   any
	Verify func(*jobs.Result) error

	// ctx derives from the core's base context and carries the job's
	// deadline; cancel aborts the job wherever it is.
	ctx    context.Context
	cancel context.CancelFunc
	// done closes exactly once, at the terminal state. running closes
	// exactly once, at the first dispatch; jobs that finish without one
	// never close it, so progress streams select on done alongside it.
	done    chan struct{}
	running chan struct{}
	// admitted is made only on a proof-cache flight leader, the job
	// whose outcome settles the flight for cacheKey, and closes once,
	// when its admission ends: published, or unwound. Followers of its
	// flight wait on it.
	admitted chan struct{}
	cacheKey proofcache.Key

	// fp fingerprints the request of a keyed job: the SHA-256 of its
	// encoding, set at admission and at recovery.
	fp fingerprint

	// owner is the tenant the job is attributed to.
	owner *tenant.Tenant

	mu sync.Mutex
	// holds is what the job's admission took besides a flight and its
	// context: unwind gives it all back if the job is never published,
	// Finish its slot if it is. A cache hit holds a record and no slot,
	// a restored job neither, so it is a set rather than a position.
	//unizklint:guardedby mu
	holds holding
	//unizklint:guardedby mu
	state State
	//unizklint:guardedby mu
	res *jobs.Encoded
	//unizklint:guardedby mu
	err error
	//unizklint:guardedby mu
	submitted time.Time
	//unizklint:guardedby mu
	started time.Time
	//unizklint:guardedby mu
	finished time.Time
	// dispatches counts Dispatch calls (journaled as TypeDispatched);
	// snapshots persist it so re-run accounting survives compaction.
	//unizklint:guardedby mu
	dispatches int
}

// Context is the job's context: done on cancel, deadline, or shutdown.
func (j *Job) Context() context.Context { return j.ctx }

// Done closes when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// view is a consistent copy of the job's mutable record.
type view struct {
	state          State
	err            error
	res            *jobs.Encoded
	queueWait, run time.Duration
}

func (j *Job) view() view {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := view{state: j.state, err: j.err, res: j.res}
	switch {
	case !j.started.IsZero():
		v.queueWait = j.started.Sub(j.submitted)
		if !j.finished.IsZero() {
			v.run = j.finished.Sub(j.started)
		}
	case !j.finished.IsZero():
		v.queueWait = j.finished.Sub(j.submitted)
	}
	return v
}

// Outcome reports the job's state and terminal error.
func (j *Job) Outcome() (State, error) {
	v := j.view()
	return v.state, v.err
}
