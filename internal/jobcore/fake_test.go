package jobcore

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/journal"
	"unizk/internal/prooferr"
	"unizk/internal/serverclient"
)

// errNoCapacity is the fake executor's refusal, given its own wire class
// through New's classify argument, the way a tier layers its classes.
var errNoCapacity = errors.New("fake: no capacity")

func classifyFake(err error) (int, string) {
	if errors.Is(err, errNoCapacity) {
		return http.StatusServiceUnavailable, "no_capacity"
	}
	return StatusFor(err)
}

// fakeExec is the scripted Executor the core is driven with. The
// request's Workload names the script (the core never resolves workload
// names, only executors do):
//
//	complete  finish with a proof that is a pure function of the content
//	fail      finish with a classified (422) prover error
//	hang      run until the job's context ends, finish with its error
//	drained   finish with the drain refusal of work that never ran
//	refuse    Prepare refuses the submit before admission
//	big       complete, with a proof padded to 2^LogRows bytes
//
// hold, when set, runs after Dispatch and before the script — the
// handle tests use to keep a job running. prepareHook runs inside
// Prepare for fresh submits, startHook first inside Start; startErr
// makes Start refuse.
type fakeExec struct {
	core        *Core
	hold        func(*Job)
	prepareHook func(*Job)
	startHook   func(*Job)
	startErr    atomic.Pointer[error]
	executions  atomic.Int64
	wg          sync.WaitGroup
}

func (f *fakeExec) Prepare(j *Job, rec *journal.JobRecord) error {
	j.Exec = "prepared"
	if rec != nil {
		return nil
	}
	if f.prepareHook != nil {
		f.prepareHook(j)
	}
	if j.Req.Workload == "refuse" {
		return errNoCapacity
	}
	return nil
}

func (f *fakeExec) Start(j *Job) error {
	if f.startHook != nil {
		f.startHook(j)
	}
	if e := f.startErr.Load(); e != nil {
		return *e
	}
	f.wg.Add(1)
	go f.run(j)
	return nil
}

func fakeProof(req *jobs.Request) *jobs.Result {
	proof := []byte(fmt.Sprintf("proof/%s/%s/%d", req.Kind, req.Workload, req.LogRows))
	if req.Workload == "big" {
		proof = append(proof, make([]byte, 1<<req.LogRows)...)
	}
	return &jobs.Result{Kind: req.Kind, Proof: proof}
}

func (f *fakeExec) run(j *Job) {
	defer f.wg.Done()
	if err := j.Context().Err(); err != nil {
		f.core.Finish(j, nil, err)
		return
	}
	f.core.Dispatch(j, "fake-node")
	f.executions.Add(1)
	if f.hold != nil {
		f.hold(j)
	}
	switch j.Req.Workload {
	case "fail":
		f.core.Finish(j, nil, fmt.Errorf("fake: constraint unsatisfied: %w", prooferr.ErrProofRejected))
	case "hang":
		<-j.Context().Done()
		f.core.Finish(j, nil, j.Context().Err())
	case "drained":
		f.core.Finish(j, nil, fmt.Errorf("fake: not started: %w", ErrDraining))
	default:
		if err := j.Context().Err(); err != nil {
			f.core.Finish(j, nil, err)
			return
		}
		f.core.Finish(j, jobs.Encode(fakeProof(j.Req)), nil)
	}
}

func (f *fakeExec) Backlog() time.Duration { return 0 }

func (f *fakeExec) Attribution(j *Job) Attribution {
	if j.Exec == nil {
		return Attribution{} // cache hit: never prepared
	}
	return Attribution{Node: "fake-node"}
}

func (f *fakeExec) Metrics(sh Shared) any { return sh }

func (f *fakeExec) Health(h *serverclient.Health) int {
	h.Queued = f.core.Pending()
	return http.StatusOK
}

func (f *fakeExec) Drain() {}
func (f *fakeExec) Close() { f.wg.Wait() }

// holdUntil returns a hold hook that parks jobs until gate closes or the
// job's context ends.
func holdUntil(gate <-chan struct{}) func(*Job) {
	return func(j *Job) {
		select {
		case <-gate:
		case <-j.Context().Done():
		}
	}
}

// newTestCore opens a core over a fake executor behind an httptest
// front-end. Cleanup drains it.
func newTestCore(t *testing.T, opt Options, f *fakeExec) (*Core, *serverclient.Client) {
	t.Helper()
	c := New("t", classifyFake, opt)
	f.core = c
	if err := c.Open(f); err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
		ts.Close()
	})
	return c, serverclient.New(ts.URL)
}

func shutdown(t *testing.T, c *Core) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func script(workload string) *jobs.Request {
	return &jobs.Request{Kind: jobs.KindPlonk, Workload: workload, LogRows: 5}
}

func waitForState(t *testing.T, c *serverclient.Client, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
}
