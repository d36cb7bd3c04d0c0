// Job-progress streaming behind GET /v1/jobs/{id}, so clients stop
// busy-polling: long-poll (?wait=) parks one request until the job
// settles; SSE pushes "event: status" + one-line JSON status on each
// transition and ends after the first terminal status. Clients detect
// terminality from the JSON state field, so there is no separate "done"
// event to drift from the status schema.
package jobcore

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/prooferr"
	"unizk/internal/serverclient"
)

// maxLongPoll caps ?wait=: a long-poll parks a handler goroutine, so
// the cap bounds what one client can pin. Longer waits just re-poll.
const maxLongPoll = 5 * time.Minute

// parseWait parses the ?wait= long-poll duration: 0 (absent) means
// answer immediately; values above maxLongPoll are clamped, not
// rejected, so clients can express "as long as you allow".
func parseWait(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad wait %q: %w: %w",
			v, jobs.ErrBadRequest, prooferr.ErrMalformedProof)
	}
	return min(d, maxLongPoll), nil
}

// waitDone parks until the job settles, the wait elapses, or the client
// disconnects; it reports false only for disconnect (nothing left to
// answer).
func waitDone(r *http.Request, done <-chan struct{}, wait time.Duration) bool {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		return true
	case <-r.Context().Done():
		return false
	}
}

// streamJob writes an SSE status stream for one job: the current status
// immediately, then one event per observed transition, ending after the
// first terminal status or when the client disconnects. j.running may
// never close (jobs canceled in queue or served from cache skip that
// state), which is why j.done is always selected alongside it.
func (c *Core) streamJob(w http.ResponseWriter, r *http.Request, j *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		// No streaming support in the transport stack: degrade to a
		// single JSON snapshot, which every SSE client here treats as a
		// poll response.
		writeJSON(w, http.StatusOK, c.statusJSON(j))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func() (terminal bool) {
		st := c.statusJSON(j)
		data, err := json.Marshal(st)
		if err != nil {
			return true
		}
		if _, err := fmt.Fprintf(w, "event: status\ndata: %s\n\n", data); err != nil {
			return true
		}
		flusher.Flush()
		return serverclient.TerminalState(st.State)
	}
	running := j.running
	for !emit() {
		select {
		case <-running:
			// The transition fires once; a closed channel would otherwise
			// win every subsequent select.
			running = nil
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
}
