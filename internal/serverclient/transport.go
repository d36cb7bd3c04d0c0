package serverclient

import (
	"context"
	"errors"
	"fmt"
	"net/http"
)

// TransportError wraps a failure to complete an HTTP exchange with the
// service: connection refused/reset, a read cut short mid-body, or a
// 2xx reply whose body did not decode (truncated or garbled by the
// network). The request may or may not have reached the server, so the
// call is safe to retry only when the request itself is idempotent —
// which every service endpoint is once submissions carry an idempotency
// key.
//
// TransportError is deliberately distinct from APIError: an APIError
// means the server parsed the request and answered; a TransportError
// means the exchange itself broke. The retry policy treats the two
// differently.
type TransportError struct {
	// Op names the exchange step that failed ("do", "read body",
	// "decode submit reply", …).
	Op string
	// Err is the underlying failure.
	Err error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("serverclient: transport: %s: %v", e.Op, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// transportErr classifies err from an exchange step. The caller's own
// context expiring is not a transport fault — retrying cannot help —
// so it propagates as the bare context error. Everything else wraps as *TransportError.
func transportErr(ctx context.Context, op string, err error) error {
	if err == nil {
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return &TransportError{Op: op, Err: err}
}

// autoRetryable reports whether the retry policy may transparently
// re-issue the request: transport faults (the server may never have
// seen the request, or its answer was lost) and the server's explicit
// "try again later" replies — 429 backpressure, 502 from an
// intermediary, 503 drain. Terminal replies (400/404/409/422) and
// job-lifecycle outcomes (499 canceled, 504 deadline) are not retried
// automatically: they mean the server made a decision about this
// request, and re-issuing it would repeat, not repair, the outcome.
func autoRetryable(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.StatusCode {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable:
			return true
		}
	}
	return false
}
