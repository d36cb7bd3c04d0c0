package server

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"unizk/internal/jobcore"
	"unizk/internal/jobs"
	"unizk/internal/serverclient"
)

// TestFinishedJobsReleaseCircuits checks that a retained record does not
// pin its compiled job. With the registry off, each job compiles its own
// circuit; a finalizer on every compiled job must fire once the jobs are
// done and the heap is collected, while their records stay queryable.
// The cache verifies on insert, so each job's Verify is bound to its
// compiled job and used by Finish.
func TestFinishedJobsReleaseCircuits(t *testing.T) {
	var compiled, freed atomic.Int64
	cfg := Config{QueueCap: 8, MaxInFlight: 1, RegistryBytes: -1,
		Options: jobcore.Options{CacheEntries: 8, CacheVerify: true}}
	cfg.testHookRunning = func(j *jobcore.Job) {
		compiled.Add(1)
		runtime.SetFinalizer(j.Exec.(*jobs.Job), func(*jobs.Job) { freed.Add(1) })
	}
	s, c := newTestServer(t, cfg)
	ctx := context.Background()

	var ids []string
	for _, req := range []*jobs.Request{
		{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 5},
		{Kind: jobs.KindPlonk, Workload: "MVM", LogRows: 4},
		{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 5},
		{Kind: jobs.KindStark, Workload: "SHA-256", LogRows: 6},
	} {
		id, err := c.Submit(ctx, req, serverclient.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if n := compiled.Load(); n != int64(len(ids)) {
		t.Fatalf("%d jobs proved, want %d", n, len(ids))
	}
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < compiled.Load(); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d compiled jobs still reachable after their jobs finished", compiled.Load()-freed.Load(), compiled.Load())
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range ids {
		if _, ok := s.x.core.Lookup(id); !ok {
			t.Fatalf("record %s was not retained", id)
		}
	}
}
