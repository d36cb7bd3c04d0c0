// Client side of job-progress streaming: an SSE consumer for the
// server's GET /v1/jobs/{id} event stream, a single-shot ?wait=
// long-poll, and WaitStream, which prefers the stream and degrades
// through long-polling down to plain polling — so it works against any
// server generation and through any intermediary that buffers SSE.
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
	"time"

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

// StatusWait long-polls a job's status: the server holds the reply
// until the job settles or wait elapses (capped server-side). The
// returned status may be non-terminal — that just means the wait
// elapsed first.
func (c *Client) StatusWait(ctx context.Context, id string, wait time.Duration) (*JobStatus, error) {
	u := c.BaseURL + "/v1/jobs/" + id
	if wait > 0 {
		u += "?wait=" + wait.String()
	}
	_, body, err := c.do(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	st := new(JobStatus)
	if err := json.Unmarshal(body, st); err != nil {
		return nil, &TransportError{Op: "decode status", Err: err}
	}
	return st, nil
}

// maxSnapshotBytes bounds the non-stream replies StreamStatus reads: an
// error document or a JSON status snapshot.
const maxSnapshotBytes = 1 << 20

// StreamStatus consumes the job's SSE status stream, invoking fn (when
// non-nil) on every status event, and returns the terminal status. Any
// failure to establish or read the stream comes back as a
// *TransportError (callers fall back to polling); a server that answers
// with a plain JSON snapshot instead of a stream is accepted and
// treated as a single event.
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
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBytes))
		return nil, apiError(resp, data)
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/event-stream") {
		// A JSON snapshot (degraded server): one event, maybe terminal.
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBytes))
		if rerr != nil {
			return nil, transportErr(ctx, "stream status", rerr)
		}
		st := new(JobStatus)
		if err := json.Unmarshal(data, st); err != nil {
			return nil, &TransportError{Op: "decode status", Err: err}
		}
		if fn != nil {
			fn(st)
		}
		if !TerminalState(st.State) {
			return nil, &TransportError{Op: "stream status",
				Err: errors.New("server answered a snapshot, not a stream")}
		}
		return st, nil
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
// mid-flight it degrades to ?wait= long-polling, and from there to the
// plain Wait poll loop — each step works against servers (or proxies)
// that do not speak the richer protocol. onStatus, when non-nil, is
// invoked on every observed status update, whichever transport
// delivered it.
func (c *Client) WaitStream(ctx context.Context, id string, onStatus func(*JobStatus)) (*jobs.Result, error) {
	st, err := c.StreamStatus(ctx, id, onStatus)
	if err == nil && st != nil && TerminalState(st.State) {
		return c.Result(ctx, id)
	}
	var te *TransportError
	if err != nil && !errors.As(err, &te) {
		// A real API rejection (unknown job, auth) — not a degraded
		// transport; polling would just repeat it.
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Long-poll fallback. A server that ignores ?wait= answers
	// immediately, so pace the loop like Wait does; with real long-poll
	// support the sleep is one idle beat per MaxLongPoll-sized round.
	interval := c.PollInterval
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	for {
		st, err := c.StatusWait(ctx, id, 30*time.Second)
		if err != nil {
			if errors.As(err, &te) {
				// Transport still unhealthy: last resort is the plain
				// poll loop, whose Result calls ride the retry policy.
				return c.Wait(ctx, id)
			}
			return nil, err
		}
		if onStatus != nil {
			onStatus(st)
		}
		if TerminalState(st.State) {
			return c.Result(ctx, id)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(interval):
		}
	}
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
