package proofcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"unizk/internal/jobs"
)

// CircuitKey identifies one compiled circuit: the request fields that
// determine circuit construction. Payload and idempotency key are
// per-request data layered on top of the same compiled artifacts.
type CircuitKey struct {
	Kind     jobs.Kind
	Workload string
	LogRows  int
}

// DefaultRegistryBytes bounds the registry when the budget is left
// zero. A compiled circuit weighs what its committed constants and
// tables do (jobs.Job.ResidentBytes): kilobytes for a small stark AIR
// and trace, under 2 MB for a 2^8-row plonk circuit. The benchmark's
// serving sets, 8 and 24 circuits, weigh 1.4 and 8.7 MB compiled fresh,
// and 13.9 MB for the 24 inside a server, where the constants can take
// larger buffers from the shared pools.
const DefaultRegistryBytes = 256 << 20

type regEntry struct {
	key   CircuitKey
	base  *jobs.Job
	bytes int64
	elem  *list.Element
}

// Registry memoizes compiled circuits at the jobs.Compile seam: compile
// once per (kind, workload, logRows), prove many. It hands out *derived*
// jobs via jobs.Job.ReuseFor — never the shared base — so the mutable
// per-prove state (the plonk witness, a payload-overridden trace) is
// private to each caller while the frozen circuit/AIR is shared. The
// bases it holds are bounded by bytes (jobs.Job.ResidentBytes), least
// recently used evicted first. Safe for concurrent use; racing compiles
// of the same key are allowed and resolve first-store-wins (the loser's
// compile is wasted work, not a correctness problem).
type Registry struct {
	budget int64

	mu sync.Mutex
	//unizklint:guardedby mu
	entries map[CircuitKey]*regEntry
	//unizklint:guardedby mu
	lru *list.List // front = most recently used; values are *regEntry
	//unizklint:guardedby mu
	bytes int64 // sum of the entries' ResidentBytes

	hits     atomic.Int64
	misses   atomic.Int64
	evicted  atomic.Int64
	compiles atomic.Int64
}

// NewRegistry builds a registry whose bases together keep at most
// budgetBytes alive (DefaultRegistryBytes if <= 0).
func NewRegistry(budgetBytes int64) *Registry {
	if budgetBytes <= 0 {
		budgetBytes = DefaultRegistryBytes
	}
	return &Registry{
		budget:  budgetBytes,
		entries: make(map[CircuitKey]*regEntry),
		lru:     list.New(),
	}
}

// JobFor returns a ready-to-prove job for req, reusing a previously
// compiled circuit when one is registered for req's CircuitKey and
// compiling (then registering) one otherwise. The returned job proves
// bit-identically to jobs.Compile(req) followed by Prove.
func (r *Registry) JobFor(req *jobs.Request) (*jobs.Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	k := CircuitKey{Kind: req.Kind, Workload: req.Workload, LogRows: req.LogRows}
	r.mu.Lock()
	e, ok := r.entries[k]
	if ok {
		r.lru.MoveToFront(e.elem)
	}
	r.mu.Unlock()
	if ok {
		r.hits.Add(1)
		return e.base.ReuseFor(req)
	}
	r.misses.Add(1)

	// Compile the canonical base — no payload, no idempotency key — so
	// the base's trace/witness is the workload's generated one and any
	// request payload is decoded fresh by ReuseFor. Compilation runs
	// outside the lock: it is the expensive step this registry exists to
	// amortize, and holding the lock across it would serialize unrelated
	// keys.
	r.compiles.Add(1)
	base, err := jobs.Compile(&jobs.Request{Kind: req.Kind, Workload: req.Workload, LogRows: req.LogRows})
	if err != nil {
		return nil, err
	}
	size := base.ResidentBytes()
	r.mu.Lock()
	if prior, ok := r.entries[k]; ok {
		// Lost the compile race; keep the first-stored base.
		r.lru.MoveToFront(prior.elem)
		base = prior.base
	} else if size <= r.budget {
		// A base larger than the whole budget serves this request and
		// is dropped with it.
		e := &regEntry{key: k, base: base, bytes: size}
		e.elem = r.lru.PushFront(e)
		r.entries[k] = e
		r.bytes += size
		for r.bytes > r.budget {
			old := r.lru.Remove(r.lru.Back()).(*regEntry)
			delete(r.entries, old.key)
			r.bytes -= old.bytes
			r.evicted.Add(1)
		}
	}
	r.mu.Unlock()
	return base.ReuseFor(req)
}

// RegistryStats is a point-in-time snapshot of the registry counters.
type RegistryStats struct {
	Hits     int64
	Misses   int64
	Evicted  int64
	Compiles int64
	Entries  int
	// Bytes is the entries' ResidentBytes total, at most the budget.
	Bytes int64
}

// Stats snapshots the counters and current size.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	entries, bytes := len(r.entries), r.bytes
	r.mu.Unlock()
	return RegistryStats{
		Hits:     r.hits.Load(),
		Misses:   r.misses.Load(),
		Evicted:  r.evicted.Load(),
		Compiles: r.compiles.Load(),
		Entries:  entries,
		Bytes:    bytes,
	}
}
