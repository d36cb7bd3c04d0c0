// Package proofcache implements the content-addressed proof cache and
// the precompiled-circuit registry behind the serving stack's hot-path
// amortization (ROADMAP item 9): identical requests cost one prove.
//
// The cache key is derived from request *content* — the canonical wire
// encoding of (kind, workload, logRows, payload) — and deliberately
// excludes the client-chosen idempotency key. The idempotency index
// answers "did *this client* already submit this request?" (retry
// safety, key-reuse conflicts); the proof cache answers "does *anyone's*
// proof for these bytes already exist?" (work amortization). Two clients
// submitting the same content under different idempotency keys are two
// distinct idempotency entries but one cache entry and one prove.
//
// Caching proofs is sound because proving is deterministic: the prover's
// parallel kernels commit to their split points (internal/parallel), so
// the proof bytes for given content are bit-identical regardless of
// worker count, scheduling, or which node proves. A cached proof is the
// proof a fresh prove would produce.
package proofcache

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/store"
	"unizk/internal/wire"
)

// Key is a content address: sha256 over the canonical wire encoding of
// the request fields that determine the proof bytes.
type Key [sha256.Size]byte

// KeyFor derives the content key for a request. The idempotency key is
// excluded — it is client-chosen routing state, not proof content — so
// requests that differ only in it collide here, which is the point.
func KeyFor(req *jobs.Request) Key {
	var w wire.Writer
	w.Uvarint(uint64(req.Kind))
	w.Str(req.Workload)
	w.Uvarint(uint64(req.LogRows))
	w.Blob(req.Payload)
	return sha256.Sum256(w.Bytes())
}

// DefaultMaxEntries is the cache size a zero Config gets.
const DefaultMaxEntries = 512

// Config bounds the cache. The zero value gets DefaultMaxEntries; a nil
// *Cache (not a zero Config) is how callers disable caching entirely.
// Entries never expire: a cached proof is the proof a fresh prove would
// produce, so only the size bound retires them.
type Config struct {
	// MaxEntries bounds the number of retained results. A full cache
	// keeps the results worth most to keep (see Complete).
	MaxEntries int
	// Verify makes Complete check each result against its compiled job
	// before inserting (verify-on-insert): a proof that fails its own
	// verifier is reported to the leader and never served from cache.
	Verify bool
}

// flight is one in-progress prove for a key: the leader's job plus the
// count of coalesced followers that attached to it.
type flight struct {
	leaderID  string
	followers int
}

// Cache is the content-addressed proof cache with singleflight
// coalescing. All methods are safe for concurrent use.
type Cache struct {
	cfg Config

	mu sync.Mutex
	//unizklint:guardedby mu
	entries *store.Store[Key, *jobs.Encoded] // each weighs 1: the budget is MaxEntries
	//unizklint:guardedby mu
	flights map[Key]*flight

	hits           atomic.Int64
	misses         atomic.Int64
	coalesced      atomic.Int64
	verifyRejected atomic.Int64
}

// New builds a cache, applying defaults to zero Config fields.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	return &Cache{
		cfg:     cfg,
		entries: store.New[Key, *jobs.Encoded](int64(cfg.MaxEntries)),
		flights: make(map[Key]*flight),
	}
}

// Begin resolves key at admission time, atomically with respect to
// concurrent submitters of the same content. Every call counts one
// request for key, whatever its outcome. Exactly one of three outcomes:
//
//   - res != nil: cache hit — the proof already exists, encoded once;
//     serve it.
//   - leaderID != "": an identical request is proving right now; the
//     caller should attach to that job (coalesce) instead of proving.
//   - leader == true: the caller is the leader for this key. It must
//     eventually call Complete (success) or Abort (failure/cancel) with
//     the same jobID, or the key stays in flight forever.
func (c *Cache) Begin(key Key, jobID string) (res *jobs.Encoded, leaderID string, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if res, ok := c.entries.Get(key); ok {
		c.hits.Add(1)
		return res, "", false
	}
	if f, ok := c.flights[key]; ok {
		f.followers++
		c.coalesced.Add(1)
		return nil, f.leaderID, false
	}
	c.misses.Add(1)
	c.flights[key] = &flight{leaderID: jobID}
	return nil, "", true
}

// Complete finishes a leader's flight with a successful result that
// took cost (the prove's run time) to produce. If the cache was built
// with Verify, check is invoked (outside the lock) and a failing result
// is counted, not inserted, and its error returned — the flight is
// still cleared so a later request can re-prove. check may be nil to
// skip verification even under Verify. Complete by a jobID that is not
// the key's current leader is a no-op (the flight was aborted and
// reclaimed, or never existed).
//
// Which results stay (internal/store's policy at weight 1): a result is
// worth its key's recent request count times its cost. A full cache evicts its least-worth entry (ties: the
// least recently accessed) only for a result worth strictly more, and
// otherwise declines the result, which is still returned to the leader
// and its followers.
func (c *Cache) Complete(key Key, jobID string, res *jobs.Encoded, cost time.Duration, check func(*jobs.Result) error) error {
	if c.cfg.Verify && check != nil {
		if err := check(res.Result); err != nil {
			c.verifyRejected.Add(1)
			c.Abort(key, jobID)
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; !ok || f.leaderID != jobID {
		return nil
	}
	delete(c.flights, key)
	// A racing insert (e.g. a replicated coordinator writing the same
	// content) may already have landed; Add refreshes it.
	c.entries.Add(key, res, 1, cost, false)
	return nil
}

// Put inserts a result directly, without a flight — how a caller seeds
// the cache with a result it already holds. It always inserts; with no
// measured cost the entry is worth nothing, so it is the first to go
// when the cache is full.
func (c *Cache) Put(key Key, res *jobs.Result) {
	enc := jobs.Encode(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Add(key, enc, 1, 0, true)
}

// Abort clears a leader's flight without inserting anything — the prove
// failed or was canceled, and failures are never cached (same policy as
// the idempotency index). Followers that attached to the leader's job
// observe its failure through the job itself; the next submission of
// this content starts a fresh flight. No-op unless jobID is the key's
// current leader.
func (c *Cache) Abort(key Key, jobID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok && f.leaderID == jobID {
		delete(c.flights, key)
	}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits           int64
	Misses         int64
	Coalesced      int64
	Evicted        int64
	Declined       int64 // results a full cache chose not to keep
	Inserted       int64
	VerifyRejected int64
	Entries        int
	Flights        int
}

// Stats snapshots the counters and current sizes.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	st, flights := c.entries.Stats(), len(c.flights)
	c.mu.Unlock()
	return Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Coalesced:      c.coalesced.Load(),
		Evicted:        st.Evicted,
		Declined:       st.Declined,
		Inserted:       st.Inserted,
		VerifyRejected: c.verifyRejected.Load(),
		Entries:        st.Entries,
		Flights:        flights,
	}
}
