// Job-progress streaming behind GET /v1/jobs/{id}, so clients stop
// busy-polling: SSE pushes "event: status" + one-line JSON status on
// each transition and ends after the first terminal status. Clients
// detect terminality from the JSON state field, so there is no separate
// "done" event to drift from the status schema.
package jobcore

import (
	"encoding/json"
	"fmt"
	"net/http"

	"unizk/internal/serverclient"
)

// streamJob writes an SSE status stream for one job: the current status
// immediately, then one event per observed transition, ending after the
// first terminal status, when the client disconnects, or when a write
// or flush fails. j.running may never close (jobs canceled in queue or
// served from cache skip that state), which is why j.done is always
// selected alongside it.
func (c *Core) streamJob(w http.ResponseWriter, r *http.Request, j *Job) {
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func() (end bool) {
		st := c.statusJSON(j)
		data, err := json.Marshal(st)
		if err != nil {
			return true
		}
		if _, err := fmt.Fprintf(w, "event: status\ndata: %s\n\n", data); err != nil {
			return true
		}
		return rc.Flush() != nil || serverclient.TerminalState(st.State)
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
