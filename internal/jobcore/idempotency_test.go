package jobcore

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/serverclient"
)

// TestIdempotentReplay pins the core dedup contract: resubmitting the
// same request under the same idempotency key attaches to the original
// job — same id, same bit-identical proof, and exactly one execution no
// matter how many times the submit is replayed.
func TestIdempotentReplay(t *testing.T) {
	f := &fakeExec{}
	core, c := newTestCore(t, Options{}, f)
	ctx := context.Background()
	req := script("complete")
	req.IdempotencyKey = "replay-key"

	first, err := c.SubmitDetail(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Deduplicated {
		t.Fatal("first submit reported deduplicated")
	}
	res, err := c.Wait(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		replay, err := c.SubmitDetail(ctx, req, serverclient.Options{})
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if !replay.Deduplicated || replay.ID != first.ID {
			t.Fatalf("replay %d = %+v, want deduplicated hit on %s", i, replay, first.ID)
		}
		// A replayed submit against a finished job is immediately
		// fetchable: the reply reports the job's actual state.
		if replay.State != "done" {
			t.Fatalf("replay %d state = %q, want done", i, replay.State)
		}
		again, err := c.Result(ctx, replay.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Proof, res.Proof) {
			t.Fatalf("replay %d returned different proof bytes", i)
		}
	}
	if n := f.executions.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}
	if sh := core.Shared(); sh.IdempotentHits != 3 || sh.IdempotencyEntries != 1 {
		t.Fatalf("idempotent hits/entries = %d/%d, want 3/1", sh.IdempotentHits, sh.IdempotencyEntries)
	}
}

// TestIdempotentConcurrentSubmits races N identical submissions under
// one key: exactly one admits, the rest attach to its job, and the
// executor runs once.
func TestIdempotentConcurrentSubmits(t *testing.T) {
	f := &fakeExec{}
	core, c := newTestCore(t, Options{}, f)
	ctx := context.Background()
	req := script("complete")
	req.IdempotencyKey = "race-key"

	const n = 8
	replies := make([]*serverclient.SubmitReply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.SubmitDetail(ctx, req, serverclient.Options{})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			replies[i] = r
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	id := replies[0].ID
	admitted := 0
	for i, r := range replies {
		if r.ID != id {
			t.Fatalf("submit %d attached to job %s, others to %s", i, r.ID, id)
		}
		if !r.Deduplicated {
			admitted++
		}
	}
	if admitted != 1 {
		t.Fatalf("%d submits admitted fresh jobs, want exactly 1", admitted)
	}
	if _, err := c.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	if ex, sub := f.executions.Load(), core.Shared().Submitted; ex != 1 || sub != 1 {
		t.Fatalf("executions = %d, submitted = %d, want 1/1", ex, sub)
	}
}

// TestIdempotencyConflict reuses a key with a different request body:
// the core must refuse with 409 "idempotency_conflict" — a terminal,
// non-retryable error — rather than silently returning the other
// request's proof.
func TestIdempotencyConflict(t *testing.T) {
	core, c := newTestCore(t, Options{}, &fakeExec{})
	ctx := context.Background()
	a := &jobs.Request{Kind: jobs.KindPlonk, Workload: "complete", LogRows: 5, IdempotencyKey: "shared-key"}
	if _, err := c.Submit(ctx, a, serverclient.Options{}); err != nil {
		t.Fatal(err)
	}
	b := &jobs.Request{Kind: jobs.KindPlonk, Workload: "complete", LogRows: 6, IdempotencyKey: "shared-key"}
	_, err := c.Submit(ctx, b, serverclient.Options{})
	var apiErr *serverclient.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("conflicting submit = %v, want APIError", err)
	}
	if apiErr.StatusCode != http.StatusConflict || apiErr.Class != "idempotency_conflict" {
		t.Fatalf("conflict reply = %+v, want 409/idempotency_conflict", apiErr)
	}
	if apiErr.Retryable() {
		t.Fatal("idempotency conflict marked retryable")
	}
	if n := core.Shared().IdempotentConflicts; n != 1 {
		t.Fatalf("conflict counter = %d, want 1", n)
	}
}

// TestIdempotencyFailureNotCached pins the "retries re-prove failures"
// rule: a canceled job does not poison its key — the retry admits a
// fresh job and gets a real proof.
func TestIdempotencyFailureNotCached(t *testing.T) {
	gate := make(chan struct{})
	core, c := newTestCore(t, Options{}, &fakeExec{hold: holdUntil(gate)})
	ctx := context.Background()
	req := script("complete")
	req.IdempotencyKey = "failed-once"

	first, err := c.Submit(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, first, "running")
	if err := c.Cancel(ctx, first); err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, first, "canceled")

	close(gate) // let the retry's execution run
	retry, err := c.SubmitDetail(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if retry.Deduplicated || retry.ID == first {
		t.Fatalf("retry after cancel = %+v, want a fresh job", retry)
	}
	if _, err := c.Wait(ctx, retry.ID); err != nil {
		t.Fatal(err)
	}
	if sh := core.Shared(); sh.Completed != 1 || sh.Canceled != 1 {
		t.Fatalf("completed = %d canceled = %d, want 1/1", sh.Completed, sh.Canceled)
	}
}

// TestIdempotencyEviction pins that a key lives as long as its job
// record: once the record is retired out of the retained set, the key
// re-admits fresh.
func TestIdempotencyEviction(t *testing.T) {
	_, c := newTestCore(t, Options{maxRetained: 1}, &fakeExec{})
	ctx := context.Background()
	keyed := script("complete")
	keyed.IdempotencyKey = "old"
	old, err := c.SubmitDetail(ctx, keyed, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, old.ID); err != nil {
		t.Fatal(err)
	}
	// A second finished job retires the first.
	if _, err := c.Prove(ctx, script("complete"), serverclient.Options{}); err != nil {
		t.Fatal(err)
	}
	again, err := c.SubmitDetail(ctx, keyed, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Deduplicated || again.ID == old.ID {
		t.Fatalf("resubmit after the record was retired = %+v, want fresh admit", again)
	}
}

// TestIdempotencyTTL drives the idempotency index's TTL through the
// injected clock — no sleeps: the key dedups while fresh, then re-admits
// the instant the clock passes expiry.
func TestIdempotencyTTL(t *testing.T) {
	core, c := newTestCore(t, Options{IdempotencyTTL: 10 * time.Minute}, &fakeExec{})
	now := time.Unix(1_700_000_000, 0)
	advance := func(d time.Duration) {
		core.mu.Lock()
		now = now.Add(d)
		core.now = func() time.Time { return now }
		core.mu.Unlock()
	}
	advance(0)
	ctx := context.Background()
	req := script("complete")
	req.IdempotencyKey = "clocked"

	first, err := c.SubmitDetail(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	// One tick short of the TTL: still deduplicates.
	advance(10*time.Minute - time.Nanosecond)
	replay, err := c.SubmitDetail(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Deduplicated || replay.ID != first.ID {
		t.Fatalf("pre-expiry replay = %+v, want dedup onto %s", replay, first.ID)
	}
	// At the TTL boundary the entry is expired: fresh admit.
	advance(time.Nanosecond)
	fresh, err := c.SubmitDetail(ctx, req, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Deduplicated || fresh.ID == first.ID {
		t.Fatalf("post-expiry replay = %+v, want fresh admit", fresh)
	}
	if n := core.Shared().IdempotentHits; n != 1 {
		t.Fatalf("idempotent hits = %d, want 1", n)
	}
}
