package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"unizk/internal/jobcore"
	"unizk/internal/jobs"
	"unizk/internal/serverclient"
)

// newTestServer starts a service and an httptest front-end, and returns
// a client pointed at it. Cleanup shuts both down.
func newTestServer(t *testing.T, cfg Config) (*Server, *serverclient.Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return s, serverclient.New(ts.URL)
}

// TestSubmitPollFetch is the basic async flow: submit a Plonk and a
// Stark job, poll to completion, fetch the proofs, verify them locally,
// and confirm the service path is bit-identical to a direct prove.
func TestSubmitPollFetch(t *testing.T) {
	_, c := newTestServer(t, Config{QueueCap: 8, MaxInFlight: 2})
	ctx := context.Background()

	reqs := []*jobs.Request{
		{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 6},
		{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 6},
	}
	for _, req := range reqs {
		id, err := c.Submit(ctx, req, serverclient.Options{})
		if err != nil {
			t.Fatalf("%s: submit: %v", req.Kind, err)
		}
		st, err := c.Status(ctx, id)
		if err != nil {
			t.Fatalf("%s: status: %v", req.Kind, err)
		}
		if st.Workload != req.Workload || st.Kind != req.Kind.String() {
			t.Fatalf("status echoes %s/%s, want %s/%s",
				st.Kind, st.Workload, req.Kind, req.Workload)
		}
		res, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("%s: wait: %v", req.Kind, err)
		}
		if err := jobs.CheckResult(req, res); err != nil {
			t.Fatalf("%s: returned proof does not verify: %v", req.Kind, err)
		}
		direct, err := jobs.Execute(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Proof, direct.Proof) {
			t.Fatalf("%s: service proof differs from direct prove", req.Kind)
		}
		st, err = c.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" || st.ProveMS < 0 {
			t.Fatalf("final status = %+v", st)
		}
	}
}

// TestBackpressureEndToEnd is the acceptance scenario: N concurrent
// clients against a queue of capacity < N. The first job is held
// in-flight so admission is deterministic: every accepted job must
// return a verifying, bit-identical proof; every saturated submission
// must get 429 with a Retry-After hint.
func TestBackpressureEndToEnd(t *testing.T) {
	const queueCap = 2
	gate := make(chan struct{})
	_, c := newTestServer(t, Config{QueueCap: queueCap, MaxInFlight: 1,
		testHookRunning: func(j *jobcore.Job) {
			select {
			case <-gate:
			case <-j.Context().Done():
			}
		}})
	ctx := context.Background()

	// Occupy the single runner, then fill the queue to capacity.
	blocker, err := c.Submit(ctx, &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5}, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, blocker, "running")

	mixed := []*jobs.Request{
		{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5},
		{Kind: jobs.KindPlonk, Workload: "Factorial", LogRows: 5},
		{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 5},
		{Kind: jobs.KindPlonk, Workload: "MVM", LogRows: 5},
		{Kind: jobs.KindStark, Workload: "SHA-256", LogRows: 5},
		{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 6},
	}
	type outcome struct {
		req *jobs.Request
		id  string
		err error
	}
	results := make([]outcome, len(mixed))
	var wg sync.WaitGroup
	for i, req := range mixed {
		wg.Add(1)
		go func(i int, req *jobs.Request) {
			defer wg.Done()
			id, err := c.Submit(ctx, req, serverclient.Options{})
			results[i] = outcome{req: req, id: id, err: err}
		}(i, req)
	}
	wg.Wait()

	var accepted []outcome
	rejected := 0
	for _, r := range results {
		if r.err == nil {
			accepted = append(accepted, r)
			continue
		}
		rejected++
		var apiErr *serverclient.APIError
		if !errors.As(r.err, &apiErr) {
			t.Fatalf("rejection is not an APIError: %v", r.err)
		}
		if apiErr.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated submit = %d, want 429", apiErr.StatusCode)
		}
		if apiErr.Class != "queue_full" || !apiErr.Retryable() || apiErr.RetryAfter < time.Second {
			t.Fatalf("429 reply lacks backpressure info: %+v", apiErr)
		}
	}
	// The runner is blocked, so exactly queueCap of the concurrent
	// submissions fit.
	if len(accepted) != queueCap || rejected != len(mixed)-queueCap {
		t.Fatalf("accepted %d / rejected %d, want %d / %d",
			len(accepted), rejected, queueCap, len(mixed)-queueCap)
	}

	close(gate) // release the blocked prover
	for _, a := range append(accepted, outcome{req: &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5}, id: blocker}) {
		res, err := c.Wait(ctx, a.id)
		if err != nil {
			t.Fatalf("accepted job %s: %v", a.id, err)
		}
		if err := jobs.CheckResult(a.req, res); err != nil {
			t.Fatalf("accepted job %s proof does not verify: %v", a.id, err)
		}
		direct, err := jobs.Execute(ctx, a.req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Proof, direct.Proof) {
			t.Fatalf("job %s: service proof differs from direct prove", a.id)
		}
	}

	// With the queue drained, the service accepts again.
	if _, err := c.Submit(ctx, mixed[0], serverclient.Options{}); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
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
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
}

// TestSyncProve exercises POST /v1/prove: one round trip, proof bytes
// identical to the direct prover.
func TestSyncProve(t *testing.T) {
	_, c := newTestServer(t, Config{QueueCap: 4, MaxInFlight: 1})
	ctx := context.Background()
	req := &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 6}
	res, err := c.Prove(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jobs.CheckResult(req, res); err != nil {
		t.Fatal(err)
	}
	direct, err := jobs.Execute(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Proof, direct.Proof) {
		t.Fatal("sync prove differs from direct prove")
	}
}

// TestSyncProveClientDisconnect ties the cancellation plumbing together:
// dropping the sync connection mid-prove cancels the job's context.
func TestSyncProveClientDisconnect(t *testing.T) {
	running := make(chan *jobcore.Job, 1)
	gate := make(chan struct{})
	_, c := newTestServer(t, Config{QueueCap: 4, MaxInFlight: 1,
		testHookRunning: func(j *jobcore.Job) {
			running <- j
			select {
			case <-gate:
			case <-j.Context().Done():
			}
		}})
	defer close(gate)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Prove(ctx, &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 6}, serverclient.Options{})
		errc <- err
	}()
	var j *jobcore.Job
	select {
	case j = <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	cancel() // drop the connection
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("disconnected prove returned a proof")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sync prove did not return after disconnect")
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job not finished after disconnect")
	}
	if state, jerr := j.Outcome(); state != jobcore.StateCanceled || !errors.Is(jerr, context.Canceled) {
		t.Fatalf("job after disconnect: state %v err %v, want canceled", state, jerr)
	}
}

// TestJobDeadline submits with a deadline shorter than the (held) prove
// and expects the 504/"deadline" mapping end to end.
func TestJobDeadline(t *testing.T) {
	_, c := newTestServer(t, Config{QueueCap: 4, MaxInFlight: 1,
		// Hold the job until its own deadline fires.
		testHookRunning: func(j *jobcore.Job) { <-j.Context().Done() }})
	req := &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 6}
	_, err := c.Prove(context.Background(), req, serverclient.Options{Timeout: 50 * time.Millisecond})
	var apiErr *serverclient.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("deadline prove = %v, want APIError", err)
	}
	if apiErr.StatusCode != http.StatusGatewayTimeout || apiErr.Class != "deadline" || !apiErr.Retryable() {
		t.Fatalf("deadline reply = %+v, want 504/deadline/retryable", apiErr)
	}
}

// TestSubmitRejections drives each malformed/refused request class
// through HTTP and checks the mapped status.
func TestSubmitRejections(t *testing.T) {
	_, c := newTestServer(t, Config{QueueCap: 4})
	ctx := context.Background()
	cases := []struct {
		name string
		req  *jobs.Request
		want int
	}{
		{"unknown workload", &jobs.Request{Kind: jobs.KindPlonk, Workload: "nope", LogRows: 6}, http.StatusBadRequest},
		{"unknown kind", &jobs.Request{Kind: 9, Workload: "Fibonacci", LogRows: 6}, http.StatusBadRequest},
		{"rows over policy", &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: jobs.MaxLogRows + 1}, http.StatusUnprocessableEntity},
		{"plonk with payload", &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 6, Payload: []byte{1}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, err := c.Submit(ctx, tc.req, serverclient.Options{})
		var apiErr *serverclient.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: %v, want APIError", tc.name, err)
		}
		if apiErr.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, apiErr.StatusCode, tc.want)
		}
		if apiErr.Retryable() {
			t.Fatalf("%s: invalid request marked retryable", tc.name)
		}
	}

	// Garbage bytes that are not even a Request.
	resp, err := http.Post(c.BaseURL+"/v1/jobs", "application/octet-stream",
		bytes.NewReader([]byte{0xff, 0xfe, 0xfd}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage submit = %d, want 400", resp.StatusCode)
	}

	// Unknown job id.
	if _, err := c.Status(ctx, "does-not-exist"); err == nil {
		t.Fatal("status of unknown id succeeded")
	}
}

// TestMetricsEndpoint proves a couple of jobs and checks the counters
// and latency quantiles move.
func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{QueueCap: 4, MaxInFlight: 1})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		req := &jobs.Request{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5}
		if _, err := c.Prove(ctx, req, serverclient.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Submitted < 2 || m.Completed < 2 {
		t.Fatalf("metrics: %+v, want ≥2 submitted and completed", m)
	}
	if m.ProveLatencyP50MS <= 0 || m.ProveLatencyP99MS < m.ProveLatencyP50MS {
		t.Fatalf("latency quantiles: p50=%v p99=%v", m.ProveLatencyP50MS, m.ProveLatencyP99MS)
	}
	if m.Workers < 1 {
		t.Fatalf("workers = %d", m.Workers)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
}

// TestCancelQueuedJob cancels a job while it waits in the queue; the
// runner must skip it and report the canceled state.
func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	_, c := newTestServer(t, Config{QueueCap: 4, MaxInFlight: 1,
		testHookRunning: func(j *jobcore.Job) {
			select {
			case <-gate:
			case <-j.Context().Done():
			}
		}})
	ctx := context.Background()
	blocker, err := c.Submit(ctx, &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5}, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, blocker, "running")
	queued, err := c.Submit(ctx, &jobs.Request{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5}, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, queued); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitForState(t, c, queued, "canceled")
	st, err := c.Status(ctx, queued)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Retryable || st.Class != "canceled" {
		t.Fatalf("canceled status = %+v", st)
	}
	// Its proof endpoint maps to 499.
	_, err = c.Result(ctx, queued)
	var apiErr *serverclient.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != jobcore.StatusClientClosedRequest {
		t.Fatalf("result of canceled job = %v, want 499", err)
	}
}
