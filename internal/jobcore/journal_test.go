package jobcore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/journal"
	"unizk/internal/serverclient"
	"unizk/internal/wire"
)

// TestJournalRestartRetainsState restarts a journaled core cleanly and
// checks the second life serves the first life's results bit-identically
// (and its failures, deadlines and drain refusals with the class and
// code they were acknowledged with), keeps
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
	// Failures are restored with the class and code they ended with.
	failures := []struct {
		req       *jobs.Request
		opts      serverclient.Options
		class     string
		code      int
		retryable bool
		id        string
	}{
		{req: script("fail"), class: "rejected", code: 422},
		{req: script("hang"), opts: serverclient.Options{Timeout: 20 * time.Millisecond}, class: "deadline", code: 504, retryable: true},
		{req: script("drained"), class: "draining", code: 503, retryable: true},
	}
	for i := range failures {
		if failures[i].id, err = c1.Submit(ctx, failures[i].req, failures[i].opts); err != nil {
			t.Fatal(err)
		}
	}
	plainRes, err := c1.Wait(ctx, plainID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Wait(ctx, keyedID); err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		waitForState(t, c1, f.id, "failed")
	}
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
	for _, f := range failures {
		st, err := c2.Status(ctx, f.id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "failed" || st.Class != f.class || st.Retryable != f.retryable {
			t.Fatalf("replayed %s job = %+v, want failed/%s, retryable %v", f.req.Workload, st, f.class, f.retryable)
		}
		var ae *serverclient.APIError
		if _, err := c2.Result(ctx, f.id); !errors.As(err, &ae) || ae.StatusCode != f.code || ae.Class != f.class {
			t.Fatalf("replayed %s job result = %v, want %d %s", f.req.Workload, err, f.code, f.class)
		}
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

// provedOnce admits req as a fresh job, waits for it to finish and
// returns it: the proof is then cached and its bytes journaled.
func provedOnce(t *testing.T, c *Core, req *jobs.Request) *Job {
	t.Helper()
	j, how, err := c.Admit(req, 0, 0, nil)
	if err != nil || how != AdmitFresh {
		t.Fatalf("first admit = (%v, %v), want a fresh job", how, err)
	}
	<-j.Done()
	if state, err := j.Outcome(); state != StateDone {
		t.Fatalf("first job ended %v: %v", state, err)
	}
	return j
}

// TestCacheHitJournalsOneRecord checks that a proof-cache hit costs one
// journal record, written as a ref to the bytes its leader committed,
// and that the hit is invisible — to Lookup and so to every route —
// until that record is durable.
func TestCacheHitJournalsOneRecord(t *testing.T) {
	dir := t.TempDir()
	c, _ := newTestCore(t, Options{JournalDir: dir, JournalFsync: journal.FsyncAlways, CacheEntries: 4}, &fakeExec{})
	req := script("complete")
	leader := provedOnce(t, c, req)

	before := c.jnl.Stats()
	var hooked atomic.Int64
	c.admitted = func(j *Job) {
		hooked.Add(1)
		if _, ok := c.Lookup(j.ID); ok {
			t.Errorf("hit %s visible before its record was durable", j.ID)
		}
		if st := c.jnl.Stats(); st.RecordsAppended != before.RecordsAppended+1 || st.Fsyncs <= before.Fsyncs {
			t.Errorf("hit %s published before its record was synced: %+v", j.ID, st)
		}
	}
	hit, how, err := c.Admit(req, 0, 0, nil)
	c.admitted = nil
	if err != nil || how != AdmitCached || hooked.Load() != 1 {
		t.Fatalf("second admit = (%v, %v), hook ran %d times; want one cache hit", how, err, hooked.Load())
	}
	after := c.jnl.Stats()
	if n := after.RecordsAppended - before.RecordsAppended; n != 1 {
		t.Fatalf("cache hit appended %d records, want 1", n)
	}
	if after.ResultsShared != before.ResultsShared+1 {
		t.Fatalf("cache hit wrote the proof again: results shared %d -> %d", before.ResultsShared, after.ResultsShared)
	}
	if state, _ := hit.Outcome(); state != StateDone {
		t.Fatalf("hit state = %v, want done", state)
	}
	shutdown(t, c)

	// Both jobs come back from the one copy of the bytes.
	_, cl2 := newTestCore(t, Options{JournalDir: dir, CacheEntries: 4}, &fakeExec{})
	for _, id := range []string{leader.ID, hit.ID} {
		res, err := cl2.Result(context.Background(), id)
		if err != nil || !bytes.Equal(res.Proof, fakeProof(req).Proof) {
			t.Fatalf("replayed %s = (%v, %v), want the leader's proof", id, res, err)
		}
	}
}

// TestCacheHitBytesFlat checks that a cache hit copies no proof bytes:
// what a hit allocates does not grow with the size of the proof it
// serves.
func TestCacheHitBytesFlat(t *testing.T) {
	perHit := func(logRows int) float64 {
		c, _ := newTestCore(t, Options{JournalDir: t.TempDir(), JournalFsync: journal.FsyncOff, CacheEntries: 4}, &fakeExec{})
		req := script("big")
		req.LogRows = logRows
		provedOnce(t, c, req)
		if _, how, err := c.Admit(req, 0, 0, nil); err != nil || how != AdmitCached {
			t.Fatalf("warm-up admit = (%v, %v), want a cache hit", how, err)
		}
		const hits = 200
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < hits; i++ {
			if _, how, err := c.Admit(req, 0, 0, nil); err != nil || how != AdmitCached {
				t.Fatalf("admit = (%v, %v), want a cache hit", how, err)
			}
		}
		runtime.ReadMemStats(&m1)
		shutdown(t, c)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / hits
	}
	small, large := perHit(8), perHit(20)
	// 2^20 - 2^8 bytes more proof; one copy of it per hit would add ~1 MiB.
	if large > small+32<<10 {
		t.Fatalf("a cache hit allocates %.0f B with a 1 MiB proof against %.0f B with a 256 B one", large, small)
	}
	t.Logf("bytes per cache hit: %.0f (256 B proof), %.0f (1 MiB proof)", small, large)
}

// parkExec takes jobs without executing them, so a test sees what
// admission alone costs; Drain finishes what it holds.
type parkExec struct {
	*fakeExec
	mu sync.Mutex
	//unizklint:guardedby mu
	parked []*Job
}

func (p *parkExec) Start(j *Job) error {
	p.mu.Lock()
	p.parked = append(p.parked, j)
	p.mu.Unlock()
	return nil
}

func (p *parkExec) Drain() {
	p.mu.Lock()
	parked := p.parked
	p.parked = nil
	p.mu.Unlock()
	for _, j := range parked {
		p.core.Finish(j, nil, ErrDraining)
	}
}

// TestKeyedSubmitOneFsync pins admission's durability cost under
// FsyncAlways: a submit, keyed or not, appends one record and waits for
// one fsync, the one that makes its admission durable. The idempotency
// binding is still replayed.
func TestKeyedSubmitOneFsync(t *testing.T) {
	dir := t.TempDir()
	opt := Options{JournalDir: dir, JournalFsync: journal.FsyncAlways}
	p := &parkExec{fakeExec: &fakeExec{}}
	c := New("t", classifyFake, opt)
	p.core = c
	if err := c.Open(p); err != nil {
		t.Fatal(err)
	}
	keyed := script("complete")
	keyed.IdempotencyKey = "one-fsync"
	var keyedID string
	for _, req := range []*jobs.Request{script("complete"), keyed} {
		before := c.jnl.Stats()
		j, _, err := c.Admit(req, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		after := c.jnl.Stats()
		if got := after.Fsyncs - before.Fsyncs; got != 1 {
			t.Fatalf("submit with key %q cost %d fsyncs, want 1", req.IdempotencyKey, got)
		}
		if req.IdempotencyKey != "" {
			keyedID = j.ID
		}
		if got := after.RecordsAppended - before.RecordsAppended; got != 1 {
			t.Fatalf("submit with key %q appended %d records, want 1", req.IdempotencyKey, got)
		}
		c.Finish(j, jobs.Encode(fakeProof(req)), nil)
	}
	shutdown(t, c)

	// The binding survives the restart: the resubmit dedups onto the
	// first life's job.
	p2 := &parkExec{fakeExec: &fakeExec{}}
	c2 := New("t", classifyFake, opt)
	p2.core = c2
	if err := c2.Open(p2); err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, c2)
	j, how, err := c2.Admit(keyed, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if how != AdmitDeduped || j.ID != keyedID {
		t.Fatalf("resubmit after restart = %s (how %d), want a dedup onto %s", j.ID, how, keyedID)
	}
}

// TestKeyedAdmissionAloneRebindsKey cuts the journal right after a keyed
// job's admitted record — all a crash may leave of the submit — and
// checks the restarted core binds the key from that record: the resubmit
// dedups onto the resumed job instead of admitting a second one.
func TestKeyedAdmissionAloneRebindsKey(t *testing.T) {
	dir := t.TempDir()
	opt := Options{JournalDir: dir, JournalFsync: journal.FsyncOff}
	core1, c1 := newTestCore(t, opt, &fakeExec{})
	ctx := context.Background()
	keyed := script("complete")
	keyed.IdempotencyKey = "cut-after-admit"
	var cut int64
	core1.admitted = func(*Job) {
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
		if err != nil || len(segs) != 1 {
			t.Errorf("journal segments = %v (err=%v), want one", segs, err)
			return
		}
		if fi, err := os.Stat(segs[0]); err == nil {
			cut = fi.Size()
		}
	}
	id, err := c1.Submit(ctx, keyed, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	shutdown(t, core1)
	if cut == 0 {
		t.Fatal("admission hook saw no journal segment")
	}
	if err := os.Truncate(filepath.Join(dir, "seg-00000001.wal"), cut); err != nil {
		t.Fatal(err)
	}

	f2 := &fakeExec{}
	core2, c2 := newTestCore(t, opt, f2)
	if jm := core2.Shared().Journal; jm.RecoveredJobs != 1 {
		t.Fatalf("recovered jobs = %d, want the cut job back", jm.RecoveredJobs)
	}
	again, err := c2.SubmitDetail(ctx, keyed, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Deduplicated || again.ID != id {
		t.Fatalf("resubmit after the cut = %+v, want a dedup onto %s", again, id)
	}
	if _, err := c2.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	if n := f2.executions.Load(); n != 1 {
		t.Fatalf("second life executed %d jobs, want only the resumed one", n)
	}
}

// TestSnapshotRestoredKeyDedups restores keyed jobs from a snapshot
// record alone and checks the key binds to the later of two jobs that
// used it, as it was bound live: the first ended canceled, so the
// second re-admitted the key.
func TestSnapshotRestoredKeyDedups(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir, journal.Options{SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Rebuild(jnl); err != nil {
		t.Fatal(err)
	}
	keyed := script("complete")
	keyed.IdempotencyKey = "from-snapshot"
	raw, err := keyed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	res := jobs.Encode(fakeProof(keyed))
	for _, rec := range []*journal.Record{
		{Type: journal.TypeAdmitted, ID: "t00000001", Req: raw, TimeNS: now},
		{Type: journal.TypeCanceled, ID: "t00000001", Class: "canceled", Msg: "context canceled", Code: 499, TimeNS: now},
		{Type: journal.TypeAdmitted, ID: "t00000002", Req: raw, TimeNS: now},
		{Type: journal.TypeCommitted, ID: "t00000002", Result: res.Raw, TimeNS: now},
	} {
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !jnl.SnapshotDue() {
		t.Fatal("snapshot not due after four records at SnapshotEvery 1")
	}
	if err := jnl.Compact(2); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	f := &fakeExec{}
	core, c := newTestCore(t, Options{JournalDir: dir}, f)
	if jm := core.Shared().Journal; jm.RecordsReplayed != 1 {
		t.Fatalf("replayed %d records, want the snapshot alone", jm.RecordsReplayed)
	}
	again, err := c.SubmitDetail(context.Background(), keyed, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Deduplicated || again.ID != "t00000002" {
		t.Fatalf("resubmit after restart = %+v, want a dedup onto t00000002", again)
	}
	if n := f.executions.Load(); n != 0 {
		t.Fatalf("restart executed %d jobs, want 0", n)
	}
}

// TestCoreCompactionMatchesReplay runs one scenario twice, once on a
// journal the core's snapshot loop compacts every four records and once
// on one it never compacts, kills each core (its journal copied while a
// job is still executing) and restarts a core on the copy. Both must
// restore the same jobs: states, result bytes, error classes and codes,
// idempotency bindings, dispatch counts and epoch.
func TestCoreCompactionMatchesReplay(t *testing.T) {
	compacted, fromImage := restartAfterScenario(t, 4)
	reference, fromRecords := restartAfterScenario(t, -1)
	if compacted != reference {
		t.Fatalf("restored from a compacted journal:\n%s\nfrom the uncompacted one:\n%s", compacted, reference)
	}
	if fromImage >= fromRecords {
		t.Fatalf("compacted journal replayed %d records, uncompacted %d: no compaction ran", fromImage, fromRecords)
	}
}

// restartAfterScenario admits a keyed job, a proof and its cache hit, a
// failed job, a canceled job and one that stays dispatched but
// unfinished, on a core whose journal compacts every snapshotEvery
// records. It then copies the journal, as a kill would leave it, and
// describes what a core restarted on the copy restores, along with how
// many records that restart replayed.
func restartAfterScenario(t *testing.T, snapshotEvery int) (string, int64) {
	t.Helper()
	dir := t.TempDir()
	gate := make(chan struct{})
	f := &fakeExec{hold: func(j *Job) {
		if j.Req.Workload == "big" {
			holdUntil(gate)(j)
		}
	}}
	core, c := newTestCore(t, Options{JournalDir: dir, SnapshotEvery: snapshotEvery, CacheEntries: 4}, f)
	defer close(gate)
	ctx := context.Background()
	submit := func(req *jobs.Request) string {
		t.Helper()
		id, err := c.Submit(ctx, req, serverclient.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	// A job's terminal record is durable once its done channel closes;
	// its state is visible a little earlier.
	ended := func(id string) {
		t.Helper()
		j, ok := core.Lookup(id)
		if !ok {
			t.Fatalf("job %s not found", id)
		}
		select {
		case <-j.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never ended", id)
		}
	}
	// First, so that every compaction folds its dispatched record.
	waitForState(t, c, submit(script("big")), "running")
	keyed := script("complete")
	keyed.IdempotencyKey = "compact-k1"
	cached := script("complete")
	cached.LogRows = 6
	for _, req := range []*jobs.Request{keyed, cached, cached, script("fail")} {
		ended(submit(req))
	}
	if hits := core.Shared().CacheHits; hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	hung := submit(script("hang"))
	waitForState(t, c, hung, "running")
	if err := c.Cancel(ctx, hung); err != nil {
		t.Fatal(err)
	}
	ended(hung)
	if snapshotEvery > 0 {
		// Compacted at least once, and nothing more is due.
		deadline := time.Now().Add(10 * time.Second)
		for core.jnl.Stats().Snapshots == 0 || core.jnl.SnapshotDue() {
			if time.Now().After(deadline) {
				t.Fatalf("journal never compacted: %+v", core.jnl.Stats())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	crashed := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("journal segments = %v (err=%v)", segs, err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The restarted executor parks what it resumes, so the restored
	// dispatch count is the replayed one.
	p := &parkExec{fakeExec: &fakeExec{}}
	restarted := New("t", classifyFake, Options{JournalDir: crashed, CacheEntries: 4})
	p.core = restarted
	if err := restarted.Open(p); err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, restarted)
	return restoredState(restarted), restarted.Shared().Journal.RecordsReplayed
}

// restoredState describes, one line each in id order, every job a core
// holds — state, dispatch count, error class and code, result digest —
// then each idempotency binding and the epoch.
func restoredState(c *Core) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lines []string
	for id, j := range c.jobsByID {
		j.mu.Lock()
		code, class := c.classify(j.err)
		var raw []byte
		if j.res != nil {
			raw = j.res.Raw
		}
		lines = append(lines, fmt.Sprintf("%s %v dispatches=%d %d %q result=%x",
			id, j.state, j.dispatches, code, class, sha256.Sum256(raw)))
		j.mu.Unlock()
	}
	for key, j := range c.idemIndex {
		lines = append(lines, fmt.Sprintf("key %s -> %s", key, j.ID))
	}
	sort.Strings(lines)
	return fmt.Sprintf("%s\nepoch %d", strings.Join(lines, "\n"), c.epoch)
}

// frame wraps payload the way the journal frames a record: u32 LE
// length, u32 LE CRC32-C, payload.
func frame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, payload...)
}

// idemBinding encodes one idempotency binding as older builds wrote it,
// in a type-5 record and in a snapshot's idem section alike.
func idemBinding(w *wire.Writer, key, id string, fp [32]byte, expires int64) {
	w.Str(key)
	w.Blob(fp[:])
	w.Str(id)
	w.U64(uint64(expires))
}

// TestParentIdemRecordsReplay replays a journal as older builds wrote
// it for two keyed jobs: a snapshot whose idem section binds the first,
// then the second's admitted record, the type-5 record that bound it,
// and its commit. Replay ignores both forms of binding and rebinds each
// key from its job record.
func TestParentIdemRecordsReplay(t *testing.T) {
	now := time.Now().UnixNano()
	expires := now + int64(10*time.Minute)
	var raws [2][]byte
	var reqs [2]*jobs.Request
	for i := range reqs {
		reqs[i] = script("complete")
		reqs[i].IdempotencyKey = fmt.Sprintf("parent-%d", i)
		raw, err := reqs[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}

	st := journal.NewState()
	st.Epoch = 1
	st.Apply(&journal.Record{Type: journal.TypeAdmitted, ID: "t00000001", Req: raws[0], TimeNS: now})
	st.Apply(&journal.Record{Type: journal.TypeCommitted, ID: "t00000001", Result: jobs.Encode(fakeProof(reqs[0])).Raw, TimeNS: now})
	var sec wire.Writer
	sec.Len(1)
	idemBinding(&sec, "parent-0", "t00000001", sha256.Sum256(raws[0]), expires)
	// EncodeState ends in the empty idem section, one zero byte; older
	// builds wrote their entries there.
	image := journal.EncodeState(st)
	image = append(image[:len(image)-1], sec.Bytes()...)
	var idem wire.Writer
	idem.Uvarint(uint64(journal.TypeIdem))
	idemBinding(&idem, "parent-1", "t00000002", sha256.Sum256(raws[1]), expires)
	var seg []byte
	for _, payload := range [][]byte{
		mustMarshal(t, &journal.Record{Type: journal.TypeSnapshot, State: image}),
		mustMarshal(t, &journal.Record{Type: journal.TypeAdmitted, ID: "t00000002", Req: raws[1], TimeNS: now}),
		idem.Bytes(),
		mustMarshal(t, &journal.Record{Type: journal.TypeCommitted, ID: "t00000002", Result: jobs.Encode(fakeProof(reqs[1])).Raw, TimeNS: now}),
	} {
		seg = append(seg, frame(payload)...)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	f := &fakeExec{}
	core, c := newTestCore(t, Options{JournalDir: dir}, f)
	if jm := core.Shared().Journal; jm.RecordsReplayed != 4 || jm.TruncatedTails != 0 {
		t.Fatalf("journal metrics = %+v, want 4 records replayed and no truncation", jm)
	}
	for i, req := range reqs {
		again, err := c.SubmitDetail(context.Background(), req, serverclient.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("t%08d", i+1); !again.Deduplicated || again.ID != want {
			t.Fatalf("resubmit of %s = %+v, want a dedup onto %s", req.IdempotencyKey, again, want)
		}
	}
	if sh := core.Shared(); sh.IdempotencyEntries != 2 || f.executions.Load() != 0 {
		t.Fatalf("idempotency entries = %d, executions = %d, want 2 and 0", sh.IdempotencyEntries, f.executions.Load())
	}
}

func mustMarshal(t *testing.T, rec *journal.Record) []byte {
	t.Helper()
	payload, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return payload
}
