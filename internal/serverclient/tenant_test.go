package serverclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestTenantStatusMappings pins the client-side decoding of the
// multi-tenant rejection taxonomy: which classes are retryable, and
// that the rejecting tenant and the server-computed Retry-After survive
// the trip into APIError.
func TestTenantStatusMappings(t *testing.T) {
	cases := []struct {
		name          string
		status        int
		body          string
		retryAfter    string
		wantClass     string
		wantTenant    string
		wantRetryable bool
		wantRetryWait time.Duration
	}{
		{
			name:   "rate limited",
			status: http.StatusTooManyRequests,
			body: `{"error":"tenant alpha rate limited","class":"rate_limited",` +
				`"tenant":"alpha","retry_after_seconds":3}`,
			retryAfter:    "3",
			wantClass:     "rate_limited",
			wantTenant:    "alpha",
			wantRetryable: true,
			wantRetryWait: 3 * time.Second,
		},
		{
			name:   "quota exceeded",
			status: http.StatusTooManyRequests,
			body: `{"error":"tenant beta at max in-flight","class":"quota_exceeded",` +
				`"tenant":"beta","retry_after_seconds":2}`,
			retryAfter:    "2",
			wantClass:     "quota_exceeded",
			wantTenant:    "beta",
			wantRetryable: true,
			wantRetryWait: 2 * time.Second,
		},
		{
			name:          "unauthorized",
			status:        http.StatusUnauthorized,
			body:          `{"error":"unknown API key","class":"unauthorized"}`,
			wantClass:     "unauthorized",
			wantRetryable: false,
		},
		{
			name:          "queue full keeps its class",
			status:        http.StatusTooManyRequests,
			body:          `{"error":"queue full","class":"queue_full","retry_after_seconds":1}`,
			retryAfter:    "1",
			wantClass:     "queue_full",
			wantRetryable: true,
			wantRetryWait: time.Second,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				http.Error(w, tc.body, tc.status)
			}))
			defer ts.Close()

			c := New(ts.URL)
			_, err := c.Status(context.Background(), "j0001")
			var ae *APIError
			if !errors.As(err, &ae) {
				t.Fatalf("err = %v, want APIError", err)
			}
			if ae.StatusCode != tc.status || ae.Class != tc.wantClass {
				t.Fatalf("decoded %d/%q, want %d/%q", ae.StatusCode, ae.Class, tc.status, tc.wantClass)
			}
			if ae.Tenant != tc.wantTenant {
				t.Fatalf("tenant = %q, want %q", ae.Tenant, tc.wantTenant)
			}
			if Retryable(ae.StatusCode) != tc.wantRetryable {
				t.Fatalf("retryable = %v, want %v", Retryable(ae.StatusCode), tc.wantRetryable)
			}
			if ae.RetryAfter != tc.wantRetryWait {
				t.Fatalf("retry after = %v, want %v", ae.RetryAfter, tc.wantRetryWait)
			}
			if autoRetryable(err) != tc.wantRetryable {
				t.Fatalf("autoRetryable = %v, want %v", autoRetryable(err), tc.wantRetryable)
			}
		})
	}
}

// TestRetryHonorsTenantRetryAfter checks that a tenant-quota 429 rides
// the retry loop like any backpressure rejection: the server's
// Retry-After stretches the jittered delay, and the retry succeeds once
// the quota frees.
func TestRetryHonorsTenantRetryAfter(t *testing.T) {
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"tenant alpha at max in-flight","class":"quota_exceeded",`+
				`"tenant":"alpha","retry_after_seconds":1}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"id":"j0001","state":"queued"}`))
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 1}
	start := time.Now()
	st, err := c.Status(context.Background(), "j0001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "queued" || calls != 2 {
		t.Fatalf("state %q after %d calls, want queued after 2", st.State, calls)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retry slept %v, want ≥1s from the quota Retry-After", elapsed)
	}

	// An unauthorized reply is terminal: no retries burn on a bad key.
	calls = 0
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, `{"error":"unknown API key","class":"unauthorized"}`, http.StatusUnauthorized)
	}))
	defer ts2.Close()
	c2 := New(ts2.URL)
	c2.Retry = &RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 1}
	var ae *APIError
	if _, err := c2.Status(context.Background(), "j0001"); !errors.As(err, &ae) ||
		ae.StatusCode != http.StatusUnauthorized || calls != 1 {
		t.Fatalf("401: err=%v calls=%d, want one terminal call", err, calls)
	}
}

// TestAPIKeyHeader checks every request path sends the configured key
// as a bearer token.
func TestAPIKeyHeader(t *testing.T) {
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.Header.Get("Authorization"))
		if r.Header.Get("Accept") == "text/event-stream" {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Write([]byte("event: status\ndata: "))
		}
		w.Write([]byte(`{"id":"j0001","state":"done"}`))
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.APIKey = "secret-key"
	if _, err := c.Status(context.Background(), "j0001"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StreamStatus(context.Background(), "j0001", nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("saw %d requests, want 2", len(got))
	}
	for i, h := range got {
		if h != "Bearer secret-key" {
			t.Fatalf("request %d Authorization = %q, want bearer key", i, h)
		}
	}
}
