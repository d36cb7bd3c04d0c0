package proofcache

import (
	"sync"
	"sync/atomic"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/store"
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
// serving sets, 8 and 24 circuits, weigh 1.4 and 8.7 MB, compiled fresh
// or inside a server that has been proving (the committed constants
// hold arrays of exactly their size, fri.PolynomialBatch.Detach).
const DefaultRegistryBytes = 256 << 20

// Registry memoizes compiled circuits at the jobs.Compile seam: compile
// once per (kind, workload, logRows), prove many. It hands out *derived*
// jobs via jobs.Job.ReuseFor — never the shared base — so the mutable
// per-prove state (the plonk witness, a payload-overridden trace) is
// private to each caller while the frozen circuit/AIR is shared. The
// bases it holds are bounded by bytes (jobs.Job.ResidentBytes) and kept
// by internal/store's policy, a base's rebuild cost being the measured
// run time of its compile. Safe for concurrent use; racing compiles of
// the same key are allowed and resolve first-store-wins (the loser's
// compile is wasted work, not a correctness problem).
type Registry struct {
	mu sync.Mutex
	//unizklint:guardedby mu
	bases *store.Store[CircuitKey, *jobs.Job]
	//unizklint:guardedby mu
	compileCost func(CircuitKey) time.Duration // test hook; nil measures Compile

	compiles atomic.Int64
}

// NewRegistry builds a registry whose bases together keep at most
// budgetBytes alive (DefaultRegistryBytes if <= 0).
func NewRegistry(budgetBytes int64) *Registry {
	if budgetBytes <= 0 {
		budgetBytes = DefaultRegistryBytes
	}
	return &Registry{bases: store.New[CircuitKey, *jobs.Job](budgetBytes)}
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
	base, ok := r.bases.Get(k)
	r.mu.Unlock()
	if ok {
		return base.ReuseFor(req)
	}

	// Compile the canonical base — no payload, no idempotency key — so
	// the base's trace/witness is the workload's generated one and any
	// request payload is decoded fresh by ReuseFor. Compilation runs
	// outside the lock: it is the expensive step this registry exists to
	// amortize, and holding the lock across it would serialize unrelated
	// keys.
	r.compiles.Add(1)
	start := time.Now()
	base, err := jobs.Compile(&jobs.Request{Kind: req.Kind, Workload: req.Workload, LogRows: req.LogRows})
	if err != nil {
		return nil, err
	}
	cost := time.Since(start)
	size := base.ResidentBytes()
	r.mu.Lock()
	if r.compileCost != nil {
		cost = r.compileCost(k)
	}
	if prior, ok := r.bases.Peek(k); ok {
		// Lost the compile race; keep the first-stored base.
		base = prior
	} else {
		// A base the store declines, or one larger than the whole
		// budget, serves this request and is dropped with it.
		r.bases.Add(k, base, size, cost, false)
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
	st := r.bases.Stats()
	r.mu.Unlock()
	return RegistryStats{
		Hits:     st.Hits,
		Misses:   st.Misses,
		Evicted:  st.Evicted,
		Compiles: r.compiles.Load(),
		Entries:  st.Entries,
		Bytes:    st.Weight,
	}
}
