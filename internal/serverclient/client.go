package serverclient

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"unizk/internal/jobs"
)

// ErrNotReady is returned by Result while the job is still queued or
// running.
var ErrNotReady = errors.New("serverclient: job not finished")

// APIError is a non-2xx reply decoded from the service's error body.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Class is the server's error class ("queue_full", "draining",
	// "malformed", "rejected", "canceled", "deadline", "internal", …).
	Class string
	// Message is the human-readable error.
	Message string
	// RetryAfter is the backpressure hint on 429/503 replies. For tenant
	// rejections it is the server's computed refill/quota estimate, which
	// RetryPolicy honors over its own jittered backoff when longer.
	RetryAfter time.Duration
	// Tenant names the tenant whose rate limit or in-flight quota
	// rejected the request (429 with Class "rate_limited" or
	// "quota_exceeded"); empty otherwise. The quota reason itself is
	// Class.
	Tenant string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %d %s: %s", e.StatusCode, e.Class, e.Message)
}

// StatusClientClosedRequest is the nginx-originated code for "the
// client went away": the job was canceled by disconnect or an explicit
// cancel call, not by the server.
const StatusClientClosedRequest = 499

// Retryable reports whether resubmitting the same request later can
// succeed after a reply with this status: backpressure (429), drain
// (503), cancellation (499) and deadline (504) are transient.
func Retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		StatusClientClosedRequest, http.StatusGatewayTimeout:
		return true
	default:
		return false
	}
}

// Options tune one submission.
type Options struct {
	// Timeout bounds the prove on the server (capped by the server's
	// MaxTimeout); 0 uses the server default.
	Timeout time.Duration
	// Priority biases the queue: higher pops first, FIFO within a level.
	Priority int
}

// Client talks to a proving service (cmd/unizk-server).
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8427".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry, when non-nil, transparently re-issues requests that fail
	// with a retryable error (transport faults, 429/502/503) using
	// capped exponential backoff with full jitter. Retried submissions
	// should carry an idempotency key so a retry after an ambiguous
	// transport failure cannot prove twice. It is for end-user clients:
	// a client without one makes exactly one exchange per call, which
	// is what a caller running its own retry loop (the cluster
	// coordinator) needs.
	Retry *RetryPolicy
	// APIKey, when non-empty, authenticates every request as its tenant
	// (sent as Authorization: Bearer). Unset means the server's default
	// tenant.
	APIKey string
}

// New returns a client for the service at baseURL.
func New(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// submitURL builds the submit/prove URL with option query parameters.
func (c *Client) submitURL(path string, opts Options) string {
	q := url.Values{}
	if opts.Timeout > 0 {
		q.Set("timeout", opts.Timeout.String())
	}
	if opts.Priority != 0 {
		q.Set("priority", strconv.Itoa(opts.Priority))
	}
	u := c.BaseURL + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	return u
}

// apiError decodes a non-2xx response into an *APIError.
func apiError(resp *http.Response, body []byte) error {
	e := &APIError{StatusCode: resp.StatusCode}
	var eb ErrorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		e.Class, e.Message = eb.Class, eb.Error
		e.RetryAfter = time.Duration(eb.RetryAfterSeconds) * time.Second
		e.Tenant = eb.Tenant
	} else {
		e.Message = string(body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		// Both RFC 9110 forms are accepted: delta-seconds and HTTP-date
		// (a date converts to a delay relative to now). Invalid values
		// leave whatever the JSON body carried.
		if d, ok := parseRetryAfter(ra, time.Now()); ok {
			e.RetryAfter = d
		}
	}
	return e
}

// do issues a request and returns the response body, converting non-2xx
// replies into *APIError and exchange failures into *TransportError.
// When the client has a Retry policy, retryable failures are re-issued
// with backoff; without one, do makes exactly one exchange.
func (c *Client) do(ctx context.Context, method, u string, body []byte) (int, []byte, error) {
	for attempt := 1; ; attempt++ {
		status, data, err := c.doOnce(ctx, method, u, body)
		if err == nil || c.Retry == nil {
			return status, data, err
		}
		delay, ok := c.Retry.next(attempt, err)
		if !ok {
			return status, data, err
		}
		select {
		case <-ctx.Done():
			// Surface the last real failure, not the bare ctx error:
			// it says why the retries were happening.
			return status, data, err
		case <-time.After(delay):
		}
	}
}

// doOnce issues a single HTTP exchange.
func (c *Client) doOnce(ctx context.Context, method, u string, body []byte) (int, []byte, error) {
	resp, data, err := c.exchange(ctx, method, u, body)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode >= 400 {
		return resp.StatusCode, nil, apiError(resp, data)
	}
	return resp.StatusCode, data, nil
}

// exchange performs the raw HTTP round trip and body read, classifying
// only transport-level failures; the response body comes back verbatim
// whatever the status code.
func (c *Client) exchange(ctx context.Context, method, u string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, nil, transportErr(ctx, "do", err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return resp, nil, transportErr(ctx, "read body", err)
	}
	return resp, data, nil
}

// maxPresized bounds the buffer a declared Content-Length may size up
// front; a longer body is read as it arrives.
const maxPresized = 64 << 20

// readBody reads a reply body. A declared Content-Length sizes the
// buffer once and exactly, so a proof reply a caller keeps
// (ResultEncoded) carries no slack; otherwise the body grows as read.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n <= 0 || n > maxPresized {
		return io.ReadAll(resp.Body)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, err
	}
	return data, nil
}

// Submit enqueues a job asynchronously and returns its id.
func (c *Client) Submit(ctx context.Context, req *jobs.Request, opts Options) (string, error) {
	reply, err := c.SubmitDetail(ctx, req, opts)
	if err != nil {
		return "", err
	}
	return reply.ID, nil
}

// SubmitDetail enqueues a job and returns the full submit reply,
// including whether the server deduplicated it onto an existing job via
// the request's idempotency key.
func (c *Client) SubmitDetail(ctx context.Context, req *jobs.Request, opts Options) (*SubmitReply, error) {
	raw, err := req.MarshalBinary()
	if err != nil {
		return nil, err
	}
	_, body, err := c.do(ctx, http.MethodPost, c.submitURL("/v1/jobs", opts), raw)
	if err != nil {
		return nil, err
	}
	reply := new(SubmitReply)
	if err := json.Unmarshal(body, reply); err != nil {
		return nil, &TransportError{Op: "decode submit reply", Err: err}
	}
	return reply, nil
}

// Status fetches a job's status.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	_, body, err := c.do(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	st := new(JobStatus)
	if err := json.Unmarshal(body, st); err != nil {
		return nil, &TransportError{Op: "decode status", Err: err}
	}
	return st, nil
}

// Result fetches a completed job's proof, ErrNotReady while it is still
// queued or running, or the job's mapped error if it failed.
func (c *Client) Result(ctx context.Context, id string) (*jobs.Result, error) {
	body, err := c.resultBody(ctx, id)
	if err != nil {
		return nil, err
	}
	res := new(jobs.Result)
	if err := res.UnmarshalBinary(body); err != nil {
		return nil, mangled(err)
	}
	return res, nil
}

// ResultEncoded is Result that keeps the reply: the result comes back
// with the bytes the server encoded, as Raw, and their SHA-256, so a
// caller that serves it again (the cluster coordinator) neither encodes
// nor copies the proof. The body is still decoded once, and one that
// does not decode is a TransportError.
func (c *Client) ResultEncoded(ctx context.Context, id string) (*jobs.Encoded, error) {
	body, err := c.resultBody(ctx, id)
	if err != nil {
		return nil, err
	}
	enc, err := jobs.DecodeEncoded(body, sha256.Sum256(body))
	if err != nil {
		return nil, mangled(err)
	}
	return enc, nil
}

// resultBody fetches the proof endpoint's body.
func (c *Client) resultBody(ctx context.Context, id string) ([]byte, error) {
	status, body, err := c.do(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/proof", nil)
	if err != nil {
		return nil, err
	}
	if status == http.StatusAccepted {
		return nil, ErrNotReady
	}
	return body, nil
}

// mangled classifies a 2xx result body that does not decode: it was
// mangled in flight, not refused by the server, so retrying the fetch
// can succeed.
func mangled(err error) error {
	return &TransportError{Op: "decode result", Err: err}
}

// Cancel asks the server to cancel a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	_, _, err := c.do(ctx, http.MethodPost, c.BaseURL+"/v1/jobs/"+id+"/cancel", nil)
	return err
}

// pollInterval paces Wait's polling.
const pollInterval = 25 * time.Millisecond

// Wait polls until the job finishes, then returns its result (or its
// mapped error). The poll loop exits early when ctx is done.
//
// Wait survives a coordinator restart: a transport failure (connection
// refused while the process is down, a reply torn mid-restart) does
// not surface — the job id is still valid on the other side of a
// journal-backed recovery, so Wait keeps re-polling the status by id
// under the client's RetryPolicy until the service answers again.
// Decided API errors (including retryable-classed ones like "canceled"
// or "deadline", which are the *job's own* terminal outcome) still
// return immediately; bound the restart window with ctx.
func (c *Client) Wait(ctx context.Context, id string) (*jobs.Result, error) {
	for {
		res, err := c.Result(ctx, id)
		if !errors.Is(err, ErrNotReady) && !waitCanRepoll(err) {
			return res, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(pollInterval):
		}
	}
}

// waitCanRepoll reports errors Wait absorbs by re-polling: the exchange
// (not the job) failed, so the job's outcome is still unknown.
func waitCanRepoll(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// Prove submits a job on the synchronous endpoint and returns the proof
// in one round trip. Canceling ctx mid-prove disconnects, which cancels
// the job on the server through its context plumbing.
func (c *Client) Prove(ctx context.Context, req *jobs.Request, opts Options) (*jobs.Result, error) {
	raw, err := req.MarshalBinary()
	if err != nil {
		return nil, err
	}
	_, body, err := c.do(ctx, http.MethodPost, c.submitURL("/v1/prove", opts), raw)
	if err != nil {
		return nil, err
	}
	res := new(jobs.Result)
	if err := res.UnmarshalBinary(body); err != nil {
		return nil, &TransportError{Op: "decode proof", Err: err}
	}
	return res, nil
}

// Health checks /healthz; a draining or down server returns an error.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	_, body, err := c.do(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	h := new(Health)
	if err := json.Unmarshal(body, h); err != nil {
		return nil, &TransportError{Op: "decode health", Err: err}
	}
	return h, nil
}

// HealthAny fetches /healthz in a single attempt and decodes the body
// regardless of HTTP status: a draining server answers 503 but its body
// still carries the node identity and load a cluster prober needs to
// tell "draining" from "dead". The retry policy does not apply: the
// prober's own loop is the retry.
func (c *Client) HealthAny(ctx context.Context) (*Health, int, error) {
	resp, data, err := c.exchange(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return nil, 0, err
	}
	h := new(Health)
	if jerr := json.Unmarshal(data, h); jerr != nil {
		return nil, resp.StatusCode, &TransportError{Op: "decode health", Err: jerr}
	}
	if h.Status == "" {
		// A non-health body (a proxy error page, a chaos blip) is a
		// mangled exchange, not a readable probe.
		return nil, resp.StatusCode, &TransportError{Op: "decode health", Err: errors.New("no status field")}
	}
	return h, resp.StatusCode, nil
}

// Metrics fetches /metrics — the counters and latency quantiles a
// cluster coordinator reads as per-node load signals.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	_, body, err := c.do(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	m := new(MetricsSnapshot)
	if err := json.Unmarshal(body, m); err != nil {
		return nil, &TransportError{Op: "decode metrics", Err: err}
	}
	return m, nil
}
