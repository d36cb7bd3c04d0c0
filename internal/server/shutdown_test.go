package server

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"unizk/internal/jobcore"
	"unizk/internal/jobs"
	"unizk/internal/serverclient"
)

// TestGracefulShutdownDrains pins the drain contract: in-flight jobs
// complete, queued-but-unstarted jobs are rejected with a retryable
// "draining" error, admission returns 503, and no goroutines leak.
func TestGracefulShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()

	gate := make(chan struct{})
	s := New(Config{QueueCap: 4, MaxInFlight: 1,
		testHookRunning: func(j *jobcore.Job) {
			select {
			case <-gate:
			case <-j.Context().Done():
			}
		}})
	ts := httptest.NewServer(s.Handler())
	c := serverclient.New(ts.URL)
	ctx := context.Background()

	inflight, err := c.Submit(ctx, &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5}, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, inflight, "running")
	queuedReq := &jobs.Request{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5}
	queued, err := c.Submit(ctx, queuedReq, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Drain with a generous deadline; release the held job once the
	// drain has begun so it completes rather than being canceled.
	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(sctx)
	}()
	waitForState(t, c, queued, "failed") // queued job rejected at drain start
	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("clean drain returned %v", err)
	}

	// The queued job carries a retryable draining rejection.
	st, err := c.Status(ctx, queued)
	if err != nil {
		t.Fatal(err)
	}
	if st.Class != "draining" || !st.Retryable {
		t.Fatalf("drained job status = %+v, want retryable draining", st)
	}

	// The in-flight job completed and its proof verifies.
	res, err := c.Result(ctx, inflight)
	if err != nil {
		t.Fatalf("in-flight job after drain: %v", err)
	}
	inflightReq := &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5}
	if err := jobs.CheckResult(inflightReq, res); err != nil {
		t.Fatal(err)
	}
	direct, err := proveDirect(ctx, inflightReq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Proof, direct.Proof) {
		t.Fatal("drained in-flight proof differs from direct prove")
	}

	// New submissions are refused with a retryable 503.
	_, err = c.Submit(ctx, queuedReq, serverclient.Options{})
	var apiErr *serverclient.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 503 || !serverclient.Retryable(apiErr.StatusCode) {
		t.Fatalf("submit while draining = %v, want retryable 503", err)
	}
	if h, err := c.Health(ctx); err == nil {
		t.Fatalf("healthz while draining = %+v, want error", h)
	}

	ts.Close()

	// No goroutine leaks: runners, waiters, and watchers are gone.
	assertGoroutinesSettle(t, before)
}

// TestShutdownForcedCancel expires the drain deadline while a job is
// held in flight: the job's context is canceled, Shutdown reports the
// deadline, and nothing leaks.
func TestShutdownForcedCancel(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{QueueCap: 4, MaxInFlight: 1,
		// Hold the job until drain force-cancels it.
		testHookRunning: func(j *jobcore.Job) { <-j.Context().Done() }})
	ts := httptest.NewServer(s.Handler())
	c := serverclient.New(ts.URL)
	ctx := context.Background()

	id, err := c.Submit(ctx, &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5}, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, id, "running")

	sctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain = %v, want DeadlineExceeded", err)
	}
	st, err := c.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "canceled" || !st.Retryable {
		t.Fatalf("force-canceled job status = %+v", st)
	}

	ts.Close()
	assertGoroutinesSettle(t, before)
}

// assertGoroutinesSettle waits for the goroutine count to return to
// (near) its pre-test level; a stuck runner or watcher fails here.
func assertGoroutinesSettle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Allow slack for runtime/test-framework goroutines that are
		// not ours (timer goroutines, keep-alives winding down).
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
