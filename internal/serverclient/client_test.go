package serverclient

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"unizk/internal/jobs"
)

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// truncatingBody yields some bytes and then an abrupt error, the way a
// connection reset mid-body surfaces to io.ReadAll.
type truncatingBody struct {
	data string
	err  error
	read bool
}

func (b *truncatingBody) Read(p []byte) (int, error) {
	if !b.read {
		b.read = true
		n := copy(p, b.data)
		return n, nil
	}
	return 0, b.err
}

func (b *truncatingBody) Close() error { return nil }

// TestTransportClassification pins which failures come back as
// retryable *TransportError and which stay terminal.
func TestTransportClassification(t *testing.T) {
	errReset := errors.New("read tcp 127.0.0.1: connection reset by peer")

	cases := []struct {
		name      string
		transport http.RoundTripper
		wantOp    string
	}{
		{
			name: "dial failure",
			transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
				return nil, errors.New("dial tcp 127.0.0.1:1: connection refused")
			}),
			wantOp: "do",
		},
		{
			name: "reset mid body",
			transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
				return &http.Response{
					StatusCode: http.StatusOK,
					Body:       &truncatingBody{data: `{"id":"j0`, err: errReset},
					Header:     http.Header{},
				}, nil
			}),
			wantOp: "read body",
		},
		{
			name: "truncated 2xx json",
			transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
				return &http.Response{
					StatusCode: http.StatusOK,
					Body:       io.NopCloser(strings.NewReader(`{"id":"j000`)),
					Header:     http.Header{},
				}, nil
			}),
			wantOp: "decode status",
		},
		{
			name: "garbled 2xx body",
			transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
				return &http.Response{
					StatusCode: http.StatusOK,
					Body:       io.NopCloser(strings.NewReader("\xff\xfe not json")),
					Header:     http.Header{},
				}, nil
			}),
			wantOp: "decode status",
		},
	}
	for _, tc := range cases {
		c := New("http://server.invalid")
		c.HTTPClient = &http.Client{Transport: tc.transport}
		_, err := c.Status(context.Background(), "j0001")
		var te *TransportError
		if !errors.As(err, &te) {
			t.Fatalf("%s: error = %v, want *TransportError", tc.name, err)
		}
		if te.Op != tc.wantOp {
			t.Fatalf("%s: op = %q, want %q", tc.name, te.Op, tc.wantOp)
		}
		if !autoRetryable(err) {
			t.Fatalf("%s: transport error not auto-retryable", tc.name)
		}
	}
}

// TestStreamStatusSnapshotReadError: a JSON snapshot reply, even one
// whose body breaks mid-read, is a transport fault of the stream, not a
// decode error.
func TestStreamStatusSnapshotReadError(t *testing.T) {
	c := New("http://server.invalid")
	c.HTTPClient = &http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: http.StatusOK,
			Body:       &truncatingBody{data: `{"id":"j0001","state":"do`, err: errors.New("connection reset by peer")},
			Header:     http.Header{"Content-Type": {"application/json"}},
		}, nil
	})}
	_, err := c.StreamStatus(context.Background(), "j0001", nil)
	var te *TransportError
	if !errors.As(err, &te) || te.Op != "stream status" {
		t.Fatalf("error = %v, want *TransportError with Op %q", err, "stream status")
	}
}

// TestStreamStatusRejectsSnapshot: a server that answers the stream
// request with a terminal JSON snapshot has not streamed, so
// StreamStatus reports a transport fault, and WaitStream still returns
// the proof by falling back to Wait.
func TestStreamStatusRejectsSnapshot(t *testing.T) {
	want := &jobs.Result{Kind: jobs.KindStark, Proof: []byte("proof")}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j0001", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":"j0001","state":"done"}`))
	})
	mux.HandleFunc("GET /v1/jobs/j0001/proof", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(jobs.Encode(want).Raw)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL)
	ctx := context.Background()

	st, err := c.StreamStatus(ctx, "j0001", nil)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("StreamStatus = %+v, %v; want a *TransportError", st, err)
	}
	res, err := c.WaitStream(ctx, "j0001", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Proof, want.Proof) {
		t.Fatalf("WaitStream proof = %q, want %q", res.Proof, want.Proof)
	}
}

// TestTerminalErrorsNotRetryable pins the other side: decoded API
// rejections and the caller's own context expiry must not be classified
// as transport faults.
func TestTerminalErrorsNotRetryable(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"bad","class":"malformed"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c := New(ts.URL)
	_, err := c.Status(context.Background(), "j0001")
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("400 reply = %v, want APIError 400", err)
	}
	if autoRetryable(err) {
		t.Fatal("400 APIError classified auto-retryable")
	}
	var te *TransportError
	if errors.As(err, &te) {
		t.Fatal("decoded API rejection classified as transport error")
	}

	// A canceled caller context is not a transport fault.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = c.Status(ctx, "j0001")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx = %v, want context.Canceled", err)
	}
	if errors.As(err, &te) {
		t.Fatal("caller cancellation classified as transport error")
	}
	if autoRetryable(err) {
		t.Fatal("caller cancellation classified auto-retryable")
	}
}

// TestRetryRecoversFromBlips drives do through a flaky transport that
// fails twice and then succeeds: with a retry policy the call succeeds
// transparently; without one it surfaces the first failure.
func TestRetryRecoversFromBlips(t *testing.T) {
	calls := 0
	flaky := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		calls++
		if calls <= 2 {
			return nil, errors.New("connection reset by peer")
		}
		return &http.Response{
			StatusCode: http.StatusOK,
			Body:       io.NopCloser(strings.NewReader(`{"id":"j0001","state":"done"}`)),
			Header:     http.Header{},
		}, nil
	})

	c := New("http://server.invalid")
	c.HTTPClient = &http.Client{Transport: flaky}
	c.Retry = &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 1}
	st, err := c.Status(context.Background(), "j0001")
	if err != nil {
		t.Fatalf("retried status = %v", err)
	}
	if st.State != "done" || calls != 3 {
		t.Fatalf("state %q after %d calls, want done after 3", st.State, calls)
	}

	// Without a policy the first failure surfaces.
	calls = 0
	c.Retry = nil
	if _, err := c.Status(context.Background(), "j0001"); err == nil || calls != 1 {
		t.Fatalf("unretried status: err=%v calls=%d, want 1 failing call", err, calls)
	}
}

// TestRetryMakesMaxAttempts: MaxAttempts N is N exchanges against a
// server that refuses every dial (cmd/prove -retries N), and the error
// that surfaces is the last dial failure itself.
func TestRetryMakesMaxAttempts(t *testing.T) {
	calls := 0
	dead := roundTripFunc(func(*http.Request) (*http.Response, error) {
		calls++
		return nil, errors.New("connection refused")
	})
	c := New("http://server.invalid")
	c.HTTPClient = &http.Client{Transport: dead}
	c.Retry = &RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Seed: 1}
	_, err := c.Status(context.Background(), "j0001")
	var te *TransportError
	if !errors.As(err, &te) || !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("err = %v, want the dial failure", err)
	}
	if calls != 8 {
		t.Fatalf("%d exchanges, want 8", calls)
	}
}

// TestRetryStopsOnTerminalError checks that terminal API errors are
// never retried even with an aggressive policy.
func TestRetryStopsOnTerminalError(t *testing.T) {
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, `{"error":"no","class":"rejected"}`, http.StatusUnprocessableEntity)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 1}
	_, err := c.Status(context.Background(), "j0001")
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want 422 APIError", err)
	}
	if calls != 1 {
		t.Fatalf("422 retried: %d calls, want 1", calls)
	}
}

// TestRetryHonorsRetryAfter checks the server's backpressure hint
// overrides a shorter jittered delay.
func TestRetryHonorsRetryAfter(t *testing.T) {
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"full","class":"queue_full","retry_after_seconds":1}`, http.StatusTooManyRequests)
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
		t.Fatalf("state %q after %d calls", st.State, calls)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retry slept %v, want ≥1s from Retry-After", elapsed)
	}
}

// TestRetryCtxCancelDuringSleep ensures a canceled context cuts the
// backoff sleep short and surfaces the last real failure.
func TestRetryCtxCancelDuringSleep(t *testing.T) {
	dead := roundTripFunc(func(*http.Request) (*http.Response, error) {
		return nil, errors.New("connection refused")
	})
	c := New("http://server.invalid")
	c.HTTPClient = &http.Client{Transport: dead}
	c.Retry = &RetryPolicy{MaxAttempts: 100, BaseDelay: time.Hour, MaxDelay: time.Hour, Seed: 1}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Status(ctx, "j0001")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop ignored ctx for %v", elapsed)
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want the last transport failure", err)
	}
}

// TestRetryDeterministicWithSeed pins that a fixed seed yields a fixed
// backoff schedule — the property the chaos soak relies on.
func TestRetryDeterministicWithSeed(t *testing.T) {
	schedule := func() []time.Duration {
		p := &RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond,
			MaxDelay: 200 * time.Millisecond, Seed: 42}
		var ds []time.Duration
		for i := 1; i <= 5; i++ {
			ds = append(ds, p.delay(i))
		}
		return ds
	}
	a, b := schedule(), schedule()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs across runs: %v vs %v", i, a[i], b[i])
		}
		ceil := 10 * time.Millisecond << (i)
		if ceil > 200*time.Millisecond {
			ceil = 200 * time.Millisecond
		}
		if a[i] < 0 || a[i] > ceil {
			t.Fatalf("delay %d = %v outside [0, %v]", i, a[i], ceil)
		}
	}
}

// TestResultEncodedKeepsReply checks that ResultEncoded returns the
// reply's bytes as the result's encoding, with the proof a window of
// them, and so allocates one full proof less than decoding the reply
// and encoding the result again (Result, then jobs.Encode).
func TestResultEncodedKeepsReply(t *testing.T) {
	res := &jobs.Result{Kind: jobs.KindStark, Proof: bytes.Repeat([]byte{7}, 1<<20)}
	want := jobs.Encode(res)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(want.Raw)))
		_, _ = w.Write(want.Raw)
	}))
	defer ts.Close()
	c := New(ts.URL)
	ctx := context.Background()

	enc, err := c.ResultEncoded(ctx, "j1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Raw, want.Raw) || enc.Sum != want.Sum || !bytes.Equal(enc.Proof, res.Proof) {
		t.Fatal("ResultEncoded differs from the encoding the server sent")
	}
	// The proof follows the kind and its length, one uvarint each.
	if head := 1 + len(binary.AppendUvarint(nil, uint64(len(res.Proof)))); &enc.Raw[head] != &enc.Proof[0] {
		t.Fatal("the proof is a copy, not a window of the reply")
	}

	perOp := func(f func() error) int64 {
		const runs = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	kept := perOp(func() error { _, err := c.ResultEncoded(ctx, "j1"); return err })
	again := perOp(func() error {
		res, err := c.Result(ctx, "j1")
		if err == nil {
			jobs.Encode(res)
		}
		return err
	})
	if saved := again - kept; saved < int64(len(res.Proof)) {
		t.Fatalf("ResultEncoded allocates %d bytes per fetch, decode then encode %d: want at least one proof (%d bytes) less",
			kept, again, len(res.Proof))
	}
}
