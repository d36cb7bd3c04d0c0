package cluster

import (
	"bytes"
	"context"
	"sort"
	"testing"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/journal"
	"unizk/internal/server"
	"unizk/internal/serverclient"
)

// durableConfig is fastConfig plus a journal directory.
func durableConfig(dir string, urls ...string) Config {
	cfg := fastConfig(urls...)
	cfg.JournalDir = dir
	return cfg
}

// TestClusterJournalRequeuesUnfinished replays a hand-written journal
// holding admitted-but-unfinished jobs — what a kill -9 leaves behind —
// and checks the restarted coordinator re-dispatches and proves them
// under their stable node-level dedup keys, counting the prior
// Dispatched record as a recorded re-dispatch.
func TestClusterJournalRequeuesUnfinished(t *testing.T) {
	dir := t.TempDir()
	reqs := map[string]*jobs.Request{
		"c00000001": {Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 6},
		"c00000002": {Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5},
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
	// c00000002 was dispatched before the kill; the node it went to is
	// gone, so the restarted coordinator must re-place it and count the
	// re-dispatch.
	if err := jnl.Append(&journal.Record{
		Type: journal.TypeDispatched,
		ID:   "c00000002",
		Node: "http://127.0.0.1:1", // unreachable: the pre-crash node
	}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	n1 := startTestNode(t, server.Config{})
	t.Cleanup(n1.kill)
	coord, cl, _ := startCluster(t, durableConfig(dir, n1.url))
	waitHealthy(t, coord, 1)
	ctx := context.Background()

	for _, id := range ids {
		res, err := cl.Wait(ctx, id)
		if err != nil {
			t.Fatalf("%s: wait after recovery: %v", id, err)
		}
		if !bytes.Equal(res.Proof, directProof(t, reqs[id])) {
			t.Fatalf("%s: recovered proof differs from direct prove", id)
		}
	}
	m := coord.Metrics()
	if m.Journal == nil || m.Journal.RecoveredJobs != 2 || m.Journal.RecoveryRedispatches != 1 {
		t.Fatalf("journal metrics = %+v, want 2 recovered / 1 re-dispatch", m.Journal)
	}
	// The pre-crash dispatch is credited in the re-dispatch upper bound.
	if m.Redispatches < 1 {
		t.Fatalf("redispatches = %d, want >= 1", m.Redispatches)
	}

	// New admissions must not collide with replayed ids.
	freshID, err := cl.Submit(ctx, &jobs.Request{Kind: jobs.KindPlonk, Workload: "MVM", LogRows: 5}, serverclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if freshID <= "c00000002" {
		t.Fatalf("fresh id %s does not continue the replayed sequence", freshID)
	}
	if _, err := cl.Wait(ctx, freshID); err != nil {
		t.Fatal(err)
	}
}
