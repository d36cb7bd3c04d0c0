package jobcore

import (
	"context"
	"errors"
	"net/http"

	"unizk/internal/jobqueue"
	"unizk/internal/prooferr"
	"unizk/internal/serverclient"
	"unizk/internal/tenant"
)

// StatusClientClosedRequest is the nginx-originated code for "the
// client went away": the job was canceled by disconnect or an explicit
// cancel call, not by the server.
const StatusClientClosedRequest = 499

// StatusFor maps an error to (HTTP status, error class) — the one place
// internal error classes become wire-visible. Every handler, the job
// status document and the journal go through it (via Options.Classify);
// the class is the machine-readable label in JSON bodies:
//
//	nil                      → 200 ""
//	journal-replayed outcome → the status/class it was acknowledged with
//	serverclient.APIError    → the node's own status/class, passed through
//	tenant.LimitError        → 429 "rate_limited" | "quota_exceeded" (retry)
//	tenant.ErrUnknownKey     → 401 "unauthorized" (terminal: fix the key)
//	jobqueue.ErrFull         → 429 "queue_full"   (backpressure; retry)
//	ErrDraining / ErrClosed  → 503 "draining"     (drain; retry)
//	ErrIdempotencyConflict   → 409 "idempotency_conflict" (terminal)
//	context.Canceled         → 499 "canceled"
//	context.DeadlineExceeded → 504 "deadline"
//	prooferr.ErrMalformedProof → 400 "malformed"  (structural garbage)
//	prooferr.ErrProofRejected  → 422 "rejected"   (well-formed, refused)
//	anything else            → 500 "internal"
//
// Order matters: decided outcomes first (a replayed or node-reported
// result must not be re-mapped), then queue and lifecycle conditions
// before the prooferr taxonomy, so a canceled job whose error chain also
// carries a classification still reports the lifecycle code.
func StatusFor(err error) (int, string) {
	var limit *tenant.LimitError
	var replayed *replayedError
	var api *serverclient.APIError
	switch {
	case err == nil:
		return http.StatusOK, ""
	case errors.As(err, &replayed):
		return replayed.code, replayed.class
	case errors.As(err, &api):
		return api.StatusCode, api.Class
	case errors.As(err, &limit):
		return http.StatusTooManyRequests, limit.Reason
	case errors.Is(err, tenant.ErrUnknownKey):
		return http.StatusUnauthorized, "unauthorized"
	case errors.Is(err, jobqueue.ErrFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, ErrDraining), errors.Is(err, jobqueue.ErrClosed):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrIdempotencyConflict):
		return http.StatusConflict, "idempotency_conflict"
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, prooferr.ErrMalformedProof):
		return http.StatusBadRequest, "malformed"
	case errors.Is(err, prooferr.ErrProofRejected):
		return http.StatusUnprocessableEntity, "rejected"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// Retryable reports whether resubmitting the same request later can
// succeed: backpressure, drain, cancellation and deadline are transient.
func Retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		StatusClientClosedRequest, http.StatusGatewayTimeout:
		return true
	default:
		return false
	}
}
