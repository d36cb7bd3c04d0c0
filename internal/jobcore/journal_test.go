package jobcore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"unizk/internal/journal"
	"unizk/internal/serverclient"
)

// TestJournalRestartRetainsState restarts a journaled core cleanly and
// checks the second life serves the first life's results bit-identically
// (and its failures with the class they were acknowledged with), keeps
// its idempotency bindings, bumps the persisted epoch, and reports the
// replay in /metrics and /healthz.
func TestJournalRestartRetainsState(t *testing.T) {
	dir := t.TempDir()
	core1, c1 := newTestCore(t, Options{JournalDir: dir}, &fakeExec{})
	ctx := context.Background()

	keyed := script("complete")
	keyed.IdempotencyKey = "restart-k1"
	plainID, err := c1.Submit(ctx, script("complete"), serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keyedID, err := c1.Submit(ctx, keyed, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	failedID, err := c1.Submit(ctx, script("fail"), serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plainRes, err := c1.Wait(ctx, plainID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Wait(ctx, keyedID); err != nil {
		t.Fatal(err)
	}
	waitForState(t, c1, failedID, "failed")
	if core1.epoch != 1 {
		t.Fatalf("first life epoch = %d, want 1", core1.epoch)
	}
	shutdown(t, core1)

	f2 := &fakeExec{}
	core2, c2 := newTestCore(t, Options{JournalDir: dir}, f2)
	if core2.epoch != 2 {
		t.Fatalf("second life epoch = %d, want 2", core2.epoch)
	}
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Epoch != 2 {
		t.Fatalf("healthz epoch = %d, want 2", h.Epoch)
	}

	// The first life's result is still served, bit-identical.
	res, err := c2.Result(ctx, plainID)
	if err != nil {
		t.Fatalf("replayed result fetch: %v", err)
	}
	if !bytes.Equal(res.Proof, plainRes.Proof) {
		t.Fatal("replayed proof differs from the one acknowledged before restart")
	}
	st, err := c2.Status(ctx, failedID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || st.Class != "rejected" || st.Retryable {
		t.Fatalf("replayed failed job = %+v, want failed/rejected/terminal", st)
	}

	// The idempotency binding survived: the same key resolves to the
	// pre-restart job instead of executing again.
	dupID, err := c2.Submit(ctx, keyed, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dupID != keyedID {
		t.Fatalf("idempotent resubmit after restart = %s, want %s", dupID, keyedID)
	}
	// A *sync* prove of the same key parks on the restored job's done
	// channel; it must observe the channel already closed and return at
	// once, not hang (the channel is rebuilt by replay, not by a prove).
	pctx, pcancel := context.WithTimeout(ctx, 30*time.Second)
	defer pcancel()
	syncRes, err := c2.Prove(pctx, keyed, serverclient.Options{})
	if err != nil {
		t.Fatalf("sync prove against replayed terminal job: %v", err)
	}
	if len(syncRes.Proof) == 0 {
		t.Fatal("sync prove against replayed terminal job returned no proof")
	}
	if n := f2.executions.Load(); n != 0 {
		t.Fatalf("second life executed %d jobs, want 0", n)
	}
	jm := core2.Shared().Journal
	if jm == nil || jm.Epoch != 2 || jm.RecordsReplayed == 0 {
		t.Fatalf("journal metrics = %+v, want epoch 2 and replayed records", jm)
	}
}

// TestJournalResumesUnfinished replays a hand-written journal holding
// admitted-but-unfinished jobs — exactly what a kill -9 leaves behind —
// and checks the restarted core hands them back to the executor,
// presents an interrupted job as running, counts its prior Dispatched
// record as a recorded re-dispatch, and continues the id sequence.
func TestJournalResumesUnfinished(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Rebuild(jnl); err != nil {
		t.Fatal(err)
	}
	ids := []string{"t00000001", "t00000002"}
	raw, err := script("complete").MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := jnl.Append(&journal.Record{Type: journal.TypeAdmitted, ID: id, Req: raw,
			TimeNS: time.Now().UnixNano()}); err != nil {
			t.Fatal(err)
		}
	}
	// t00000002 was executing at the kill.
	if err := jnl.Append(&journal.Record{Type: journal.TypeDispatched, ID: "t00000002"}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	f := &fakeExec{hold: holdUntil(gate)}
	core, c := newTestCore(t, Options{JournalDir: dir}, f)
	ctx := context.Background()
	if st, err := c.Status(ctx, "t00000002"); err != nil || st.State != "running" {
		t.Fatalf("interrupted job after recovery = %+v %v, want running", st, err)
	}
	close(gate)
	for _, id := range ids {
		if _, err := c.Wait(ctx, id); err != nil {
			t.Fatalf("%s: wait after recovery: %v", id, err)
		}
	}
	if jm := core.Shared().Journal; jm.RecoveredJobs != 2 || jm.RecoveryRedispatches != 1 {
		t.Fatalf("recovered=%d redispatches=%d, want 2 and 1", jm.RecoveredJobs, jm.RecoveryRedispatches)
	}
	// New admissions must not collide with replayed ids.
	freshID, err := c.Submit(ctx, script("complete"), serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if freshID <= "t00000002" {
		t.Fatalf("fresh id %s does not continue the replayed sequence", freshID)
	}
}

// TestJournalTornTailTruncated corrupts the journal tail — the torn
// write a crash can leave — and checks startup truncates it and keeps
// serving what was durable, rather than refusing to start.
func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	core1, c1 := newTestCore(t, Options{JournalDir: dir}, &fakeExec{})
	ctx := context.Background()
	id, err := c1.Submit(ctx, script("complete"), serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := c1.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	shutdown(t, core1)

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments in %s (err=%v)", dir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	core2, c2 := newTestCore(t, Options{JournalDir: dir}, &fakeExec{})
	got, err := c2.Result(ctx, id)
	if err != nil {
		t.Fatalf("result after torn-tail recovery: %v", err)
	}
	if !bytes.Equal(got.Proof, res1.Proof) {
		t.Fatal("proof changed across torn-tail recovery")
	}
	if jm := core2.Shared().Journal; jm == nil || jm.TruncatedTails == 0 {
		t.Fatalf("metrics journal = %+v, want truncated_tails > 0", jm)
	}
}

// TestJournalMetricsShape pins the /metrics wire shape of the journal
// section: present with the documented field names when journaling is
// on, absent entirely when it is off. (The tiers' full key sets are
// pinned by internal/cluster's TestWireKeysGolden.)
func TestJournalMetricsShape(t *testing.T) {
	ctx := context.Background()
	on, c := newTestCore(t, Options{JournalDir: t.TempDir()}, &fakeExec{})
	if _, err := c.Submit(ctx, script("complete"), serverclient.Options{}); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(on.Shared().Journal)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"epoch", "records_appended", "records_replayed", "fsyncs",
		"fsync_p50_ms", "fsync_p99_ms", "segments", "snapshots",
		"snapshot_age_ms", "truncated_tails", "recovery_duration_ms",
		"recovered_jobs", "recovery_redispatches",
	} {
		if _, ok := fields[key]; !ok {
			t.Errorf("journal metrics missing %q: %s", key, raw)
		}
	}
	if fields["epoch"].(float64) != 1 {
		t.Fatalf("fresh journal epoch = %v, want 1", fields["epoch"])
	}
	if fields["records_appended"].(float64) == 0 {
		t.Fatal("an admitted job appended no journal records")
	}
	// Journaling off: the section must be omitted, not zero-filled.
	off, _ := newTestCore(t, Options{}, &fakeExec{})
	if jm := off.Shared().Journal; jm != nil {
		t.Fatalf("journaling off but the journal section is %+v", jm)
	}
}
