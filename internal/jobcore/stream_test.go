package jobcore

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"unizk/internal/serverclient"
)

// TestStatusLongPoll parks a ?wait= status request against a held job
// and checks it returns promptly once the job settles (not after the
// full wait).
func TestStatusLongPoll(t *testing.T) {
	gate := make(chan struct{})
	_, c := newTestCore(t, Options{}, &fakeExec{hold: holdUntil(gate)})
	ctx := context.Background()
	id, err := c.Submit(ctx, script("complete"), serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, id, "running")

	type polled struct {
		st  *serverclient.JobStatus
		err error
	}
	got := make(chan polled, 1)
	go func() {
		st, err := c.StatusWait(ctx, id, time.Minute)
		got <- polled{st, err}
	}()
	// The long-poll must be parked, not answered with "running".
	select {
	case p := <-got:
		t.Fatalf("long-poll returned early: %+v %v", p.st, p.err)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	select {
	case p := <-got:
		if p.err != nil {
			t.Fatal(p.err)
		}
		if p.st.State != "done" {
			t.Fatalf("long-poll state = %q, want done", p.st.State)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll did not return after job settled")
	}

	// A zero wait still answers immediately, and a bad wait is 400.
	if st, err := c.StatusWait(ctx, id, 0); err != nil || st.State != "done" {
		t.Fatalf("plain status = %+v %v", st, err)
	}
	resp, err := http.Get(c.BaseURL + "/v1/jobs/" + id + "?wait=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait = %d, want 400", resp.StatusCode)
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
