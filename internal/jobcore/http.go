// The HTTP API, identical on every tier:
//
//	POST /v1/jobs              submit a job (wire-encoded jobs.Request body)
//	GET  /v1/jobs/{id}         job status (JSON snapshot, or SSE)
//	GET  /v1/jobs/{id}/proof   proof bytes (wire-encoded jobs.Result)
//	POST /v1/jobs/{id}/cancel  cancel a queued or running job
//	POST /v1/prove             submit and wait (proof bytes in response)
//	GET  /healthz              liveness + drain state
//	GET  /metrics              counters and latency quantiles (JSON)
//
// Submit options ride as query parameters: ?timeout=30s bounds the job
// (capped at 30m), ?priority=N biases queues (higher
// first, FIFO within a level).
package jobcore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/prooferr"
	"unizk/internal/serverclient"
	"unizk/internal/tenant"
)

func (c *Core) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/proof", c.handleProof)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", c.handleCancel)
	mux.HandleFunc("POST /v1/prove", c.handleProveSync)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

// writeError renders err through the status mapping, with a Retry-After
// on retryable rejections. Tenant-limit rejections carry their own
// (token refill time, or the quota estimate) and name the tenant.
func (c *Core) writeError(w http.ResponseWriter, err error) {
	status, class := c.classify(err)
	body := serverclient.ErrorBody{Error: err.Error(), Class: class}
	var limit *tenant.LimitError
	switch {
	case errors.As(err, &limit):
		body.Tenant = limit.Tenant
		body.RetryAfterSeconds = ceilSeconds(limit.RetryAfter)
	case Retryable(status):
		body.RetryAfterSeconds = c.retryAfterSeconds()
	}
	if body.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfterSeconds))
	}
	writeJSON(w, status, body)
}

// ceilSeconds rounds a duration up to whole seconds, minimum 1 — the
// granularity of the Retry-After header.
func ceilSeconds(d time.Duration) int {
	return max(int((d+time.Second-1)/time.Second), 1)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already committed
}

// errBodyTooLong refuses a submit body past jobs.MaxRequestBytes in the
// class Validate gives an oversize payload; a declared length past the
// cap is refused before the body is read.
var errBodyTooLong = fmt.Errorf("request body exceeds %d bytes: %w: %w",
	jobs.MaxRequestBytes, jobs.ErrRefused, prooferr.ErrProofRejected)

// decodeSubmit authenticates the request — Authorization: Bearer <key>
// takes precedence over X-API-Key, absence of both is anonymous — and
// reads the submit body and options.
func (c *Core) decodeSubmit(r *http.Request) (tn *tenant.Tenant, req *jobs.Request, priority int, timeout time.Duration, err error) {
	key := r.Header.Get("X-API-Key")
	if k, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok {
		key = strings.TrimSpace(k)
	}
	if tn, err = c.opt.Tenants.Authenticate(key); err != nil {
		c.met.rejectedUnauth.Add(1)
		return nil, nil, 0, 0, err
	}
	bad := func(what, v string) error {
		return fmt.Errorf("bad %s %q: %w: %w", what, v, jobs.ErrBadRequest, prooferr.ErrMalformedProof)
	}
	if r.ContentLength > jobs.MaxRequestBytes {
		return nil, nil, 0, 0, errBodyTooLong
	}
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, jobs.MaxRequestBytes))
	var tooLong *http.MaxBytesError
	switch {
	case errors.As(err, &tooLong):
		return nil, nil, 0, 0, errBodyTooLong
	case err != nil:
		return nil, nil, 0, 0, fmt.Errorf("reading request body: %v: %w: %w",
			err, jobs.ErrBadRequest, prooferr.ErrMalformedProof)
	}
	req = new(jobs.Request)
	if err := req.UnmarshalBinary(body); err != nil {
		return nil, nil, 0, 0, err
	}
	if p := r.URL.Query().Get("priority"); p != "" {
		if priority, err = strconv.Atoi(p); err != nil {
			return nil, nil, 0, 0, bad("priority", p)
		}
	}
	if d := r.URL.Query().Get("timeout"); d != "" {
		if timeout, err = time.ParseDuration(d); err != nil || timeout < 0 {
			return nil, nil, 0, 0, bad("timeout", d)
		}
	}
	return tn, req, priority, timeout, nil
}

// submit runs the part both submit endpoints share: authenticate,
// decode, admit. It has written the error reply when ok is false.
func (c *Core) submit(w http.ResponseWriter, r *http.Request) (j *Job, how AdmitHow, ok bool) {
	tn, req, priority, timeout, err := c.decodeSubmit(r)
	if err == nil {
		j, how, err = c.Admit(req, priority, timeout, tn)
	}
	if err != nil {
		c.writeError(w, err)
		return nil, how, false
	}
	return j, how, true
}

// handleSubmit admits a job and replies 202 with its id; the client
// polls GET /v1/jobs/{id} and fetches the proof when done.
func (c *Core) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j, how, ok := c.submit(w, r)
	if !ok {
		return
	}
	state := StateQueued
	if how != AdmitFresh {
		// An attach (idempotency, cache, coalesce) may land on a job in
		// any state; report the one it is actually in so a replayed
		// "done" submit is immediately fetchable.
		state, _ = j.Outcome()
	}
	writeJSON(w, http.StatusAccepted, serverclient.SubmitReply{
		ID:           j.ID,
		State:        state.String(),
		StatusURL:    "/v1/jobs/" + j.ID,
		Deduplicated: how == AdmitDeduped,
		Cached:       how == AdmitCached,
		Coalesced:    how == AdmitCoalesced,
	})
}

// handleProveSync admits a job, waits for it, and returns the proof
// bytes directly. The job's lifetime is tied to the connection: a
// disconnect cancels it like a deadline or a drain would.
func (c *Core) handleProveSync(w http.ResponseWriter, r *http.Request) {
	j, how, ok := c.submit(w, r)
	if !ok {
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Disconnect cancels only a job this request admitted; an
		// attached job (idempotency, cache, coalesce) belongs to its
		// original submitter, and canceling it here would fail every
		// other waiter.
		if how == AdmitFresh {
			j.cancel()
			<-j.done
		}
	}
	if state, _ := j.Outcome(); state == StateDone {
		w.Header().Set("Unizk-Job-Id", j.ID)
	}
	c.writeResult(w, j)
}

// writeResult replies with the wire-encoded jobs.Result of a done job,
// the mapped error of a failed one, or 202 + status JSON before either.
func (c *Core) writeResult(w http.ResponseWriter, j *Job) {
	v := j.view()
	if !v.state.terminal() {
		writeJSON(w, http.StatusAccepted, c.statusJSON(j))
		return
	}
	if v.state != StateDone {
		c.writeError(w, v.err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(v.res.Raw)))
	_, _ = w.Write(v.res.Raw)
}

// Status is the JSON body of GET /v1/jobs/{id}: serverclient.JobStatus
// plus the executor's attribution, which a local executor leaves empty
// and so off the wire.
type Status struct {
	serverclient.JobStatus
	// Node / NodeID: where the job runs, or — once done — what proved it.
	Node   string `json:"node,omitempty"`
	NodeID string `json:"node_id,omitempty"`
	// Redispatches counts failovers this job survived.
	Redispatches int `json:"redispatches,omitempty"`
}

// statusJSON assembles the status document for a job.
func (c *Core) statusJSON(j *Job) Status {
	v := j.view()
	at := c.exec.Attribution(j)
	st := Status{JobStatus: serverclient.JobStatus{
		ID:          j.ID,
		Kind:        j.Req.Kind.String(),
		Workload:    j.Req.Workload,
		LogRows:     j.Req.LogRows,
		Priority:    j.Priority,
		State:       v.state.String(),
		QueueWaitMS: v.queueWait.Milliseconds(),
		ProveMS:     v.run.Milliseconds(),
	}, Node: at.Node, NodeID: at.NodeID, Redispatches: at.Redispatches}
	if v.err != nil {
		code, class := c.classify(v.err)
		st.Error = v.err.Error()
		st.Class = class
		st.Retryable = Retryable(code)
	}
	return st
}

// lookupOr404 resolves the {id} path value, replying 404 when unknown.
func (c *Core) lookupOr404(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := c.Lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, serverclient.ErrorBody{
			Error: "unknown job id", Class: "not_found"})
	}
	return j, ok
}

// handleStatus reports a job's status: a plain GET answers at once
// with a JSON snapshot, and Accept: text/event-stream streams a
// "status" event now and on each observed transition (stream.go).
func (c *Core) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookupOr404(w, r)
	if !ok {
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		c.streamJob(w, r, j)
		return
	}
	writeJSON(w, http.StatusOK, c.statusJSON(j))
}

func (c *Core) handleProof(w http.ResponseWriter, r *http.Request) {
	if j, ok := c.lookupOr404(w, r); ok {
		c.writeResult(w, j)
	}
}

// handleCancel cancels a queued or running job; terminal jobs are
// unaffected (the reply reports whichever state the job settles in).
func (c *Core) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j, ok := c.lookupOr404(w, r); ok {
		j.cancel()
		writeJSON(w, http.StatusOK, c.statusJSON(j))
	}
}

// handleHealthz reports liveness: the executor fills its fields and
// verdict, a drain overrides both. Epoch is the persisted epoch (0 with
// journaling off): it increments on each restart, making crash recovery
// directly observable.
func (c *Core) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := serverclient.Health{Status: "ok", Epoch: c.epoch}
	status := c.exec.Health(&h)
	if c.draining.Load() {
		h.Status, status = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (c *Core) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.exec.Metrics(c.Shared()))
}
