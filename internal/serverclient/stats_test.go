package serverclient

import (
	"errors"
	"testing"
	"time"
)

// TestRetryPolicyStats drives next() through each of its exits and
// checks that only the allowed retries count.
func TestRetryPolicyStats(t *testing.T) {
	te := &TransportError{Op: "do", Err: errors.New("reset")}
	terminal := &APIError{StatusCode: 422, Class: "rejected"}

	p := &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Seed: 1}

	if _, ok := p.next(1, te); !ok {
		t.Fatal("first retry refused")
	}
	if _, ok := p.next(2, te); !ok {
		t.Fatal("second retry refused")
	}
	if _, ok := p.next(3, te); ok {
		t.Fatal("retry allowed past MaxAttempts")
	}
	if _, ok := p.next(1, terminal); ok {
		t.Fatal("terminal error retried")
	}
	s := p.Stats()
	if s.Retries != 2 {
		t.Fatalf("stats = %+v, want retries=2", s)
	}
}
