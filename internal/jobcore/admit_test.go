package jobcore

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"unizk/internal/jobqueue"
	"unizk/internal/jobs"
	"unizk/internal/journal"
	"unizk/internal/serverclient"
	"unizk/internal/tenant"
)

// blockFirst returns a prepareHook that parks the first submit it sees
// (signalling entered) until release closes, and lets every later one
// through — the way tests hold one admission inside its window between
// the cache/idempotency lookups and registration.
func blockFirst() (hook func(*Job), entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	return func(*Job) {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}, entered, release
}

// TestAdmissionRollbackMatrix drives every path on which an admission
// is refused or superseded after it has taken something — a cache
// flight, a quota slot, a durable Admitted record — and checks that
// each gives everything back: no flight, slot or pending count is left
// behind, the acknowledged jobs (and only those) replay from the
// journal, and superseded Admitted records stay dead.
func TestAdmissionRollbackMatrix(t *testing.T) {
	type env struct {
		t  *testing.T
		c  *Core
		f  *fakeExec
		tn *tenant.Tenant
	}
	wait := func(e env, j *Job) {
		select {
		case <-j.Done():
		case <-time.After(10 * time.Second):
			e.t.Fatalf("job %s never finished", j.ID)
		}
	}
	cases := []struct {
		name string
		// run returns the ids the client was acknowledged and how many
		// Admitted records must have been superseded.
		run func(e env) (acked []string, superseded int)
	}{
		{"refused before admission: flight and slot released, nothing journaled", func(e env) ([]string, int) {
			if _, _, err := e.c.Admit(script("refuse"), 0, 0, e.tn); !errors.Is(err, errNoCapacity) {
				e.t.Fatalf("refused submit = %v, want errNoCapacity", err)
			}
			// Same content is provable afterwards: the flight was aborted.
			return nil, 0
		}},
		{"cache-leader abort: next identical submit leads and proves", func(e env) ([]string, int) {
			refuse := errors.New("start refused")
			e.f.startErr.Store(&refuse)
			if _, _, err := e.c.Admit(script("complete"), 0, 0, e.tn); !errors.Is(err, refuse) {
				e.t.Fatalf("submit = %v, want the start refusal", err)
			}
			e.f.startErr.Store(nil)
			j, how, err := e.c.Admit(script("complete"), 0, 0, e.tn)
			if err != nil || how != AdmitFresh {
				e.t.Fatalf("submit after aborted flight = %v/%v, want a fresh leader", how, err)
			}
			wait(e, j)
			return []string{j.ID}, 1
		}},
		{"saturation after journal append: unregistered, key unbound, record superseded", func(e env) ([]string, int) {
			full := error(jobqueue.ErrFull)
			e.f.startErr.Store(&full)
			req := script("complete")
			req.IdempotencyKey = "sat"
			if _, _, err := e.c.Admit(req, 0, 0, e.tn); !errors.Is(err, jobqueue.ErrFull) {
				e.t.Fatalf("saturated submit = %v, want ErrFull", err)
			}
			if _, ok := e.c.Lookup("t00000001"); ok {
				e.t.Fatal("refused job is still registered")
			}
			e.f.startErr.Store(nil)
			j, how, err := e.c.Admit(req, 0, 0, e.tn)
			if err != nil || how != AdmitFresh || j.ID == "t00000001" {
				e.t.Fatalf("retry under the same key = %v/%v, want a fresh admit", how, err)
			}
			wait(e, j)
			return []string{j.ID}, 1
		}},
		{"idem race loser: attaches to the winner, its record superseded", func(e env) ([]string, int) {
			hook, entered, release := blockFirst()
			e.f.prepareHook = hook
			req := script("complete")
			req.IdempotencyKey = "race"
			type out struct {
				j   *Job
				how AdmitHow
				err error
			}
			loser := make(chan out, 1)
			go func() {
				j, how, err := e.c.Admit(req, 0, 0, e.tn)
				loser <- out{j, how, err}
			}()
			<-entered // the loser passed the idempotency lookup and holds a slot
			w, how, err := e.c.Admit(req, 0, 0, e.tn)
			if err != nil || how != AdmitFresh {
				e.t.Fatalf("winner = %v/%v, want fresh", how, err)
			}
			close(release)
			l := <-loser
			if l.err != nil || l.how != AdmitDeduped || l.j != w {
				e.t.Fatalf("loser = %v/%v on %v, want dedup onto %s", l.how, l.err, l.j, w.ID)
			}
			wait(e, w)
			if n := e.f.executions.Load(); n != 1 {
				e.t.Fatalf("executions = %d, want 1", n)
			}
			return []string{w.ID}, 1
		}},
		{"coalesced follower before leader registration: waits, then attaches", func(e env) ([]string, int) {
			hook, entered, release := blockFirst()
			e.f.prepareHook = hook
			running := make(chan struct{})
			e.f.hold = holdUntil(running)
			type out struct {
				j   *Job
				how AdmitHow
				err error
			}
			leader := make(chan out, 1)
			go func() {
				j, how, err := e.c.Admit(script("complete"), 0, 0, e.tn)
				leader <- out{j, how, err}
			}()
			<-entered // the leader holds the flight but is not registered
			follower := make(chan out, 1)
			go func() {
				j, how, err := e.c.Admit(script("complete"), 0, 0, e.tn)
				follower <- out{j, how, err}
			}()
			for e.c.cache.Stats().Coalesced == 0 { // follower found the flight
				time.Sleep(time.Millisecond)
			}
			close(release)
			l, fo := <-leader, <-follower
			close(running) // only now may the leader's execution finish
			if l.err != nil || l.how != AdmitFresh {
				e.t.Fatalf("leader = %v/%v, want fresh", l.how, l.err)
			}
			if fo.err != nil || fo.how != AdmitCoalesced || fo.j != l.j {
				e.t.Fatalf("follower = %v/%v on %v, want coalesced onto %s", fo.how, fo.err, fo.j, l.j.ID)
			}
			wait(e, l.j)
			if n := e.f.executions.Load(); n != 1 {
				e.t.Fatalf("executions = %d, want 1", n)
			}
			return []string{l.j.ID}, 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg, err := tenant.NewRegistry(tenant.Config{Name: "small", Key: "k", MaxInFlight: 2})
			if err != nil {
				t.Fatal(err)
			}
			tn, err := reg.Authenticate("k")
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			f := &fakeExec{}
			c, _ := newTestCore(t, Options{CacheEntries: 8, Tenants: reg, JournalDir: dir}, f)
			acked, superseded := tc.run(env{t, c, f, tn})

			if n := c.Pending(); n != 0 {
				t.Errorf("pending = %d after the case settled, want 0", n)
			}
			if n := tn.Stats().InFlight; n != 0 {
				t.Errorf("tenant holds %d in-flight slots, want 0", n)
			}
			if n := c.cache.Stats().Flights; n != 0 {
				t.Errorf("%d cache flights left open, want 0", n)
			}
			shutdown(t, c)

			// What the journal replays is exactly what was acknowledged.
			jnl, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			st, err := journal.Rebuild(jnl)
			if err != nil {
				t.Fatal(err)
			}
			_ = jnl.Close()
			var live []string
			dead := 0
			for id, jr := range st.Jobs {
				if jr.Terminal && jr.Class == journal.ClassSuperseded {
					dead++
				} else {
					live = append(live, id)
				}
			}
			sort.Strings(live)
			sort.Strings(acked)
			if len(live) != len(acked) {
				t.Fatalf("journal replays jobs %v, acknowledged %v", live, acked)
			}
			for i := range live {
				if live[i] != acked[i] {
					t.Fatalf("journal replays jobs %v, acknowledged %v", live, acked)
				}
			}
			if dead != superseded {
				t.Errorf("journal holds %d superseded records, want %d", dead, superseded)
			}
			f2 := &fakeExec{}
			c2, _ := newTestCore(t, Options{Tenants: reg, JournalDir: dir}, f2)
			if sh := c2.Shared(); sh.Submitted != int64(len(acked)) || sh.Pending != 0 {
				t.Errorf("second life restored %d jobs (%d pending), want %d and 0",
					sh.Submitted, sh.Pending, len(acked))
			}
		})
	}
}

// TestShutdown pins drain: admission stops with the retryable
// ErrDraining, running jobs get until the deadline, then their contexts
// are canceled and Shutdown still waits for them to unwind.
func TestShutdown(t *testing.T) {
	f := &fakeExec{}
	c, _ := newTestCore(t, Options{}, f)
	done, _, err := c.Admit(script("complete"), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-done.Done()
	hung, _, err := c.Admit(script("hang"), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain = %v, want the deadline error", err)
	}
	if state, jerr := hung.Outcome(); state != StateCanceled || !errors.Is(jerr, context.Canceled) {
		t.Fatalf("hung job after forced drain: %v %v, want canceled", state, jerr)
	}
	if _, _, err := c.Admit(script("complete"), 0, 0, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
}

// TestCacheWeighsLeaderByRunTime: a leader's Finish hands the cache the
// job's run time, so in a one-entry cache a slow prove displaces a fast
// one of equal popularity. Were the cost lost (zero for both), the slow
// newcomer would be worth no more than the resident and be declined.
func TestCacheWeighsLeaderByRunTime(t *testing.T) {
	const slowRun = 50 * time.Millisecond
	f := &fakeExec{hold: func(j *Job) {
		if j.Req.LogRows == 6 {
			time.Sleep(slowRun)
		}
	}}
	c, cl := newTestCore(t, Options{CacheEntries: 1}, f)
	ctx := context.Background()
	fast, slow := script("complete"), script("complete")
	slow.LogRows = 6
	for _, req := range []*jobs.Request{fast, slow} {
		if _, err := cl.Prove(ctx, req, serverclient.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.cache.Stats()
	if st.Evicted != 1 || st.Declined != 0 || st.Entries != 1 {
		t.Fatalf("cache stats = %+v, want the slow proof to evict the fast one", st)
	}
	if r, err := cl.SubmitDetail(ctx, slow, serverclient.Options{}); err != nil || !r.Cached {
		t.Fatalf("resubmitted slow content = (%+v, %v), want a cache hit", r, err)
	}
	if n := f.executions.Load(); n != 2 {
		t.Fatalf("executions = %d, want 2", n)
	}
}
