// Client side of job-progress streaming: an SSE consumer for the
// server's GET /v1/jobs/{id} event stream, and WaitStream, which
// prefers the stream and falls back to Wait's plain polling — so it
// converges through any intermediary that buffers SSE, and across a
// server restart.
package serverclient

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"unizk/internal/jobs"
)

// TerminalState reports whether a wire-visible job state is terminal.
// It mirrors the server's classification (a JobStatus carries one of
// "queued", "running", "done", "failed", "canceled").
func TerminalState(state string) bool {
	switch state {
	case "done", "failed", "canceled":
		return true
	default:
		return false
	}
}

// maxErrorBytes bounds the error document StreamStatus reads from a
// non-200 reply.
const maxErrorBytes = 1 << 20

// StreamStatus consumes the job's SSE status stream, invoking fn (when
// non-nil) on every status event, and returns the terminal status. Any
// failure to establish or read the stream — including a 200 reply that
// is not text/event-stream — comes back as a *TransportError (callers
// fall back to polling).
func (c *Client) StreamStatus(ctx context.Context, id string, fn func(*JobStatus)) (*JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, &TransportError{Op: "stream status", Err: err}
	}
	req.Header.Set("Accept", "text/event-stream")
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, transportErr(ctx, "stream status", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Decode the error body through the standard path so 404s and
		// quota rejections keep their classes.
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBytes))
		return nil, apiError(resp, data)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		return nil, &TransportError{Op: "stream status",
			Err: fmt.Errorf("server answered %q, not an event stream", ct)}
	}

	// The SSE grammar we emit is line-based: "event: status" then
	// "data: <json>" then a blank line. Only data lines matter.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var last *JobStatus
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		st := new(JobStatus)
		if err := json.Unmarshal([]byte(data), st); err != nil {
			return nil, &TransportError{Op: "decode status event", Err: err}
		}
		last = st
		if fn != nil {
			fn(st)
		}
		if TerminalState(st.State) {
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, transportErr(ctx, "read status stream", err)
	}
	// Stream ended without a terminal event: the server went away.
	return last, &TransportError{Op: "read status stream", Err: errors.New("stream ended before job settled")}
}

// WaitStream waits for a job by consuming its SSE status stream, then
// fetches the result. When the stream cannot be established or breaks
// mid-flight it falls back to Wait's poll loop, which also survives a
// server restart. onStatus, when non-nil, is invoked on every status
// event the stream delivers; the fallback reports none.
func (c *Client) WaitStream(ctx context.Context, id string, onStatus func(*JobStatus)) (*jobs.Result, error) {
	_, err := c.StreamStatus(ctx, id, onStatus)
	var te *TransportError
	switch {
	case err == nil: // the stream delivered a terminal status
		return c.Result(ctx, id)
	case !errors.As(err, &te):
		// A real API rejection (unknown job, auth) — not a degraded
		// transport; polling would just repeat it.
		return nil, err
	case ctx.Err() != nil:
		return nil, ctx.Err()
	}
	return c.Wait(ctx, id)
}

// String renders a compact human-readable progress line for a status
// update — what cmd/prove -stream prints.
func (st *JobStatus) String() string {
	b := fmt.Sprintf("%s %s", st.ID, st.State)
	if st.State == "done" || st.State == "failed" {
		b += fmt.Sprintf(" (queue %dms, prove %dms)", st.QueueWaitMS, st.ProveMS)
	}
	if st.Error != "" {
		b += ": " + st.Error
	}
	return b
}
