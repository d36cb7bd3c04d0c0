package server

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"unizk/internal/jobcore"
	"unizk/internal/jobs"
	"unizk/internal/serverclient"
)

// TestDrainRetryAfterScalesWithInFlight pins the local executor's
// backlog estimate behind Retry-After: idle, it is the queue depth per
// runner times the median prove latency; while draining, it switches to
// the in-flight jobs shutdown is waiting out.
func TestDrainRetryAfterScalesWithInFlight(t *testing.T) {
	gate := make(chan struct{})
	s, c := newTestServer(t, Config{QueueCap: 4, MaxInFlight: 2,
		testHookRunning: func(j *jobcore.Job) {
			select {
			case <-gate:
			case <-j.Context().Done():
			}
		}})
	// Seed the latency estimator with a 3s median prove.
	for i := 0; i < 4; i++ {
		s.x.proveLat.add(3 * time.Second)
	}
	if got := s.x.Backlog(); got != 3*time.Second {
		// Not draining: empty queue → depth 1 → 1·p50 = 3s.
		t.Fatalf("idle backlog = %v, want 3s", got)
	}
	ctx := context.Background()
	for _, w := range []string{"Fibonacci", "Factorial"} {
		id, err := c.Submit(ctx, &jobs.Request{Kind: jobs.KindPlonk, Workload: w, LogRows: 5}, serverclient.Options{})
		if err != nil {
			t.Fatal(err)
		}
		waitForState(t, c, id, "running")
	}
	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(sctx)
	}()
	waitForDraining(t, s)
	if got := s.x.Backlog(); got != 9*time.Second {
		// Draining with 2 in flight → depth 3 → 3·p50 = 9s.
		t.Fatalf("draining backlog = %v, want 9s", got)
	}
	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain returned %v", err)
	}
}

// TestDrainRejectionRetryAfter checks the 503 drain rejection end to
// end: the reply carries a computed Retry-After header and JSON field,
// parity with the 429 backpressure path.
func TestDrainRejectionRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	s, c := newTestServer(t, Config{QueueCap: 4, MaxInFlight: 1,
		testHookRunning: func(j *jobcore.Job) {
			select {
			case <-gate:
			case <-j.Context().Done():
			}
		}})
	ctx := context.Background()

	held, err := c.Submit(ctx, &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5}, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, held, "running")

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(sctx)
	}()
	waitForDraining(t, s)

	_, err = c.Submit(ctx, &jobs.Request{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5}, serverclient.Options{})
	var apiErr *serverclient.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("submit while draining = %v, want APIError", err)
	}
	if apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.Class != "draining" {
		t.Fatalf("drain rejection = %+v, want 503/draining", apiErr)
	}
	if apiErr.RetryAfter < time.Second {
		t.Fatalf("drain rejection Retry-After = %v, want ≥1s", apiErr.RetryAfter)
	}

	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain returned %v", err)
	}
}

// waitForDraining polls until Shutdown has flipped the drain flag.
func waitForDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !s.x.core.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
}
