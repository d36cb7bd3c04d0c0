package jobcore

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"unizk/internal/jobqueue"
	"unizk/internal/jobs"
	"unizk/internal/prooferr"
	"unizk/internal/serverclient"
	"unizk/internal/tenant"
)

// TestStatusFor pins every mapping from the internal error taxonomy to
// HTTP status codes — the one place the service translates errors.
func TestStatusFor(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		status    int
		class     string
		retryable bool
	}{
		{"nil", nil, http.StatusOK, "", false},
		{"queue full", jobqueue.ErrFull, http.StatusTooManyRequests, "queue_full", true},
		{"wrapped queue full", fmt.Errorf("push: %w", jobqueue.ErrFull), http.StatusTooManyRequests, "queue_full", true},
		{"draining", ErrDraining, http.StatusServiceUnavailable, "draining", true},
		{"queue closed", jobqueue.ErrClosed, http.StatusServiceUnavailable, "draining", true},
		{"idempotency conflict", ErrIdempotencyConflict, http.StatusConflict, "idempotency_conflict", false},
		{"wrapped idempotency conflict", fmt.Errorf("key %q: %w", "k", ErrIdempotencyConflict), http.StatusConflict, "idempotency_conflict", false},
		{"canceled", context.Canceled, StatusClientClosedRequest, "canceled", true},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline", true},
		{"malformed", prooferr.ErrMalformedProof, http.StatusBadRequest, "malformed", false},
		{"wrapped malformed", fmt.Errorf("jobs: %w: %w", jobs.ErrBadRequest, prooferr.ErrMalformedProof), http.StatusBadRequest, "malformed", false},
		{"rejected", prooferr.ErrProofRejected, http.StatusUnprocessableEntity, "rejected", false},
		{"refused policy", fmt.Errorf("rows: %w: %w", jobs.ErrRefused, prooferr.ErrProofRejected), http.StatusUnprocessableEntity, "rejected", false},
		{"unclassified", errors.New("boom"), http.StatusInternalServerError, "internal", false},
		{"build failure", fmt.Errorf("gen: %w", jobs.ErrBuild), http.StatusInternalServerError, "internal", false},
		{"unknown api key", tenant.ErrUnknownKey, http.StatusUnauthorized, "unauthorized", false},
		{"tenant limit", &tenant.LimitError{Tenant: "a", Reason: tenant.ReasonQuotaExceeded}, http.StatusTooManyRequests, "quota_exceeded", true},
		// Decided outcomes keep the status they were acknowledged with:
		// a node's reply passed through, a journal-replayed terminal error.
		{"node reply", &serverclient.APIError{StatusCode: 422, Class: "rejected"}, 422, "rejected", false},
		{"node canceled", &serverclient.APIError{StatusCode: 499, Class: "canceled"}, 499, "canceled", true},
		{"replayed", &replayedError{code: 503, class: "no_capacity", msg: "x"}, 503, "no_capacity", true},
		// The documented precedence: a canceled job whose error chain also
		// carries a prooferr class still maps to the lifecycle code.
		{"lifecycle beats taxonomy", fmt.Errorf("%w during verify: %w", context.Canceled, prooferr.ErrProofRejected), StatusClientClosedRequest, "canceled", true},
	}
	for _, tc := range cases {
		status, class := StatusFor(tc.err)
		if status != tc.status || class != tc.class {
			t.Errorf("%s: StatusFor = (%d, %q), want (%d, %q)",
				tc.name, status, class, tc.status, tc.class)
		}
		if got := Retryable(status); got != tc.retryable {
			t.Errorf("%s: Retryable(%d) = %v, want %v", tc.name, status, got, tc.retryable)
		}
	}
}

// TestStatusTableEndToEnd drives each scripted executor outcome through
// the HTTP API and checks the status line, the error body, and the job
// status document agree with the table — including a tier class layered
// in through Options.Classify and the Retry-After on retryable refusals.
func TestStatusTableEndToEnd(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	f := &fakeExec{}
	f.hold = func(j *Job) {
		if j.Req.Workload == "hang" {
			holdUntil(gate)(j)
		}
	}
	_, c := newTestCore(t, Options{}, f)
	ctx := context.Background()

	// complete → 200 with the executor's proof and attribution.
	res, err := c.Prove(ctx, script("complete"), serverclient.Options{})
	if err != nil || string(res.Proof) != string(fakeProof(script("complete")).Proof) {
		t.Fatalf("complete = %v %v, want the scripted proof", res, err)
	}

	var ae *serverclient.APIError
	// fail → the prover's class, terminal, mirrored on the status document.
	id, err := c.Submit(ctx, script("fail"), serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, id, "failed")
	if _, err = c.Result(ctx, id); !errors.As(err, &ae) || ae.StatusCode != 422 || ae.Class != "rejected" || ae.Retryable() {
		t.Fatalf("failed job result = %v, want terminal 422 rejected", err)
	}
	if st, _ := c.Status(ctx, id); st.Class != "rejected" || st.Retryable || st.Error == "" {
		t.Fatalf("failed job status = %+v, want class rejected, not retryable", st)
	}

	// hang, then cancel → 499 canceled, retryable.
	id, err = c.Submit(ctx, script("hang"), serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, id, "running")
	if err := c.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, id, "canceled")
	if _, err = c.Result(ctx, id); !errors.As(err, &ae) || ae.StatusCode != StatusClientClosedRequest || !ae.Retryable() {
		t.Fatalf("canceled job result = %v, want retryable 499", err)
	}

	// hang with a deadline → 504 deadline on the sync route.
	_, err = c.Prove(ctx, script("hang"), serverclient.Options{Timeout: 20e6})
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusGatewayTimeout || ae.Class != "deadline" {
		t.Fatalf("deadline prove = %v, want 504 deadline", err)
	}

	// refuse → the tier's own class via Classify, with a Retry-After.
	_, err = c.Submit(ctx, script("refuse"), serverclient.Options{})
	if !errors.As(err, &ae) || ae.StatusCode != 503 || ae.Class != "no_capacity" || ae.RetryAfter <= 0 {
		t.Fatalf("refused submit = %v, want 503 no_capacity with Retry-After", err)
	}

	// Malformed input is refused before the executor sees it.
	_, err = c.Submit(ctx, &jobs.Request{Kind: 9, Workload: "complete", LogRows: 5}, serverclient.Options{})
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest || ae.Retryable() {
		t.Fatalf("unknown kind = %v, want terminal 400", err)
	}
	if _, err := c.Status(ctx, "nope"); !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id = %v, want 404", err)
	}
}
