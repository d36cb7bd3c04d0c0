package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/journal"
	"unizk/internal/serverclient"
)

// newDurableTestServer is newTestServer with journaling on: the journal
// lives in dir, so a second call on the same dir exercises recovery.
func newDurableTestServer(t *testing.T, dir string, cfg Config) (*Server, *serverclient.Client) {
	t.Helper()
	cfg.JournalDir = dir
	s, err := NewDurable(cfg)
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return s, serverclient.New(ts.URL)
}

// TestServerJournalRequeuesUnfinished replays a hand-written journal
// holding admitted-but-unfinished jobs — exactly what a kill -9 leaves
// behind — and checks the restarted server re-enqueues and proves them,
// counting a prior Dispatched record as a recorded re-dispatch.
func TestServerJournalRequeuesUnfinished(t *testing.T) {
	dir := t.TempDir()
	reqs := map[string]*jobs.Request{
		"j00000001": {Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5},
		"j00000002": {Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5},
	}
	jnl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Rebuild(jnl); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(reqs))
	for id := range reqs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		raw, err := reqs[id].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(&journal.Record{
			Type:   journal.TypeAdmitted,
			ID:     id,
			Req:    raw,
			TimeNS: time.Now().UnixNano(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// j00000002 was mid-prove at the kill: its re-run must be a recorded
	// re-dispatch, not a silent double prove.
	if err := jnl.Append(&journal.Record{Type: journal.TypeDispatched, ID: "j00000002"}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	s, c := newDurableTestServer(t, dir, Config{QueueCap: 8, MaxInFlight: 2})
	ctx := context.Background()
	for _, id := range ids {
		res, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("%s: wait after recovery: %v", id, err)
		}
		direct, err := proveDirect(ctx, reqs[id])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Proof, direct.Proof) {
			t.Fatalf("%s: recovered proof differs from direct prove", id)
		}
	}
	if jm := s.Metrics().Journal; jm.RecoveredJobs != 2 || jm.RecoveryRedispatches != 1 {
		t.Fatalf("recovered=%d redispatches=%d, want 2 and 1",
			jm.RecoveredJobs, jm.RecoveryRedispatches)
	}
	// New admissions must not collide with replayed ids.
	freshID, err := c.Submit(ctx, &jobs.Request{Kind: jobs.KindPlonk, Workload: "MVM", LogRows: 5}, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if freshID <= "j00000002" {
		t.Fatalf("fresh id %s does not continue the replayed sequence", freshID)
	}
}
