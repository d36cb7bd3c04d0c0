package jobcore

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"unizk/internal/serverclient"
)

// TestStatusIgnoresWait checks ?wait= is an ignored parameter: a status
// GET carrying it on a held, running job answers at once with the
// running snapshot instead of parking until the job settles.
func TestStatusIgnoresWait(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	_, c := newTestCore(t, Options{}, &fakeExec{hold: holdUntil(gate)})
	ctx := context.Background()
	id, err := c.Submit(ctx, script("complete"), serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, id, "running")

	wctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(wctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"?wait=1m", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("status with ?wait=1m did not answer within 1s: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.State != "running" {
		t.Fatalf("status with ?wait=1m = %d %+v, want 200 running", resp.StatusCode, st)
	}
}

// noFlush is a ResponseWriter that cannot flush: it hides every method
// but the interface's own.
type noFlush struct{ http.ResponseWriter }

// TestStreamEndsWhenFlushFails streams a held, running job through a
// writer that cannot flush: the stream carries the current status and
// ends at once rather than holding the request until the job settles.
func TestStreamEndsWhenFlushFails(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	core, c := newTestCore(t, Options{}, &fakeExec{hold: holdUntil(gate)})
	id, err := c.Submit(context.Background(), script("complete"), serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, id, "running")
	j, ok := core.Lookup(id)
	if !ok {
		t.Fatalf("job %s not registered", id)
	}

	rec := httptest.NewRecorder()
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		core.streamJob(noFlush{rec}, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil), j)
	}()
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("stream held open although flushing fails")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}
	if body := rec.Body.String(); strings.Count(body, "event: status\n") != 1 || !strings.Contains(body, `"state":"running"`) {
		t.Fatalf("stream body = %q, want one running status event", body)
	}
}

// TestStatusSSE consumes the raw SSE stream for a held job: an initial
// "running" event carrying the executor's attribution, then a terminal
// "done" event, then EOF — and the client helper consumes the same
// stream end to end.
func TestStatusSSE(t *testing.T) {
	gate := make(chan struct{})
	_, c := newTestCore(t, Options{}, &fakeExec{hold: holdUntil(gate)})
	ctx := context.Background()
	id, err := c.Submit(ctx, script("complete"), serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, id, "running")

	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}

	events := make(chan Status, 4)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var st Status
				if json.Unmarshal([]byte(data), &st) == nil {
					events <- st
				}
			}
		}
	}()

	first := <-events
	if first.State != "running" || first.Node != "fake-node" {
		t.Fatalf("first SSE event = %+v, want running on fake-node", first)
	}
	close(gate)
	var last Status
	for st := range events { // drains until the server ends the stream
		last = st
	}
	if last.State != "done" {
		t.Fatalf("terminal SSE event state = %q, want done", last.State)
	}

	id2, err := c.Submit(ctx, script("complete"), serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	res, err := c.WaitStream(ctx, id2, func(st *serverclient.JobStatus) {
		seen = append(seen, st.State)
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Proof) != string(fakeProof(script("complete")).Proof) {
		t.Fatalf("WaitStream proof = %q", res.Proof)
	}
	if len(seen) == 0 || !serverclient.TerminalState(seen[len(seen)-1]) {
		t.Fatalf("WaitStream observed states %v, want a terminal tail", seen)
	}
}
