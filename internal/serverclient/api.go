// Package serverclient is the HTTP client for the proving service
// (internal/server, cmd/unizk-server) and the home of the service's
// JSON API types. The server imports this package for the response
// shapes, so client and server cannot drift; proof requests and results
// themselves travel as internal/jobs wire encodings, identical to what
// cmd/prove uses locally.
package serverclient

// JobStatus is the JSON body of GET /v1/jobs/{id} (and of the 202
// replies for jobs that are not finished yet).
type JobStatus struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Workload string `json:"workload"`
	LogRows  int    `json:"log_rows"`
	Priority int    `json:"priority,omitempty"`
	// State is one of "queued", "running", "done", "failed", "canceled".
	State string `json:"state"`
	// Error and Class are set for failed/canceled jobs; Class is the
	// server's error class ("malformed", "rejected", "canceled",
	// "deadline", "draining", "internal").
	Error string `json:"error,omitempty"`
	Class string `json:"class,omitempty"`
	// Retryable reports whether resubmitting the same job later can
	// succeed (drain rejections, cancellations — not malformed input).
	Retryable bool `json:"retryable,omitempty"`
	// QueueWaitMS and ProveMS are measured once the job leaves the
	// respective stage.
	QueueWaitMS int64 `json:"queue_wait_ms,omitempty"`
	ProveMS     int64 `json:"prove_ms,omitempty"`
}

// SubmitReply is the JSON body of a 202 from POST /v1/jobs.
type SubmitReply struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	StatusURL string `json:"status_url"`
	// Deduplicated reports that the submit's idempotency key matched an
	// already-admitted request: ID names the original job (which may be
	// in any state, including done) and nothing was re-proved.
	Deduplicated bool `json:"deduplicated,omitempty"`
	// Cached reports a content-addressed proof-cache hit: the job is
	// already done and its result is the cached (bit-identical) proof.
	Cached bool `json:"cached,omitempty"`
	// Coalesced reports that an identical-content request was already
	// proving and this submit attached to that in-flight job
	// (thundering-herd protection; exactly one prove runs).
	Coalesced bool `json:"coalesced,omitempty"`
}

// ErrorBody is the JSON body of every non-2xx API response.
type ErrorBody struct {
	Error string `json:"error"`
	Class string `json:"class"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// Tenant names the tenant whose rate limit or in-flight quota
	// rejected the request (429 rate_limited / quota_exceeded only);
	// Class carries the quota reason.
	Tenant string `json:"tenant,omitempty"`
}

// Health is the JSON body of GET /healthz.
type Health struct {
	Status   string `json:"status"`
	Queued   int    `json:"queued"`
	InFlight int64  `json:"in_flight"`
	// NodeID is a random identifier minted when the server process
	// started; StartNS is that start instant (UnixNano). Together they
	// name one server *epoch*: a restart at the same address changes
	// both, which is how a cluster coordinator detects that a node
	// lost its in-memory state (jobs, idempotency index) and must have
	// its in-flight attributions invalidated.
	NodeID  string `json:"node_id,omitempty"`
	StartNS int64  `json:"start_ns,omitempty"`
	// Epoch is the *persisted* coordinator epoch: with a write-ahead
	// journal configured it survives restarts and increments on each one
	// (replayed epoch + 1), so clients and operators can observe "the
	// coordinator crashed and recovered" directly. 0 when journaling is
	// off.
	Epoch uint64 `json:"epoch,omitempty"`
}

// The /metrics sections every tier serves. The job-lifecycle core
// (internal/jobcore) fills them once; the single server's
// MetricsSnapshot and the cluster coordinator's document both embed
// them, so the shared JSON keys cannot drift between tiers.

// JobCounters counts jobs by lifecycle outcome.
type JobCounters struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
}

// IdempotencyMetrics exposes the dedup index: replayed submits,
// key-reuse rejections, and the current (bounded, TTL'd) entry count.
type IdempotencyMetrics struct {
	IdempotentHits      int64 `json:"idempotent_hits"`
	IdempotentConflicts int64 `json:"idempotent_conflicts"`
	IdempotencyEntries  int   `json:"idempotency_entries"`
}

// CacheMetrics holds the proof-cache counters (internal/proofcache),
// all zero when the cache is disabled. CacheHits counts submits served
// a stored proof; CacheCoalesced counts submits attached to an
// in-flight identical prove.
type CacheMetrics struct {
	CacheHits           int64 `json:"cache_hits,omitempty"`
	CacheMisses         int64 `json:"cache_misses,omitempty"`
	CacheCoalesced      int64 `json:"cache_coalesced,omitempty"`
	CacheEvicted        int64 `json:"cache_evicted,omitempty"`
	CacheExpired        int64 `json:"cache_expired,omitempty"`
	CacheInserted       int64 `json:"cache_inserted,omitempty"`
	CacheVerifyRejected int64 `json:"cache_verify_rejected,omitempty"`
	CacheEntries        int   `json:"cache_entries,omitempty"`
}

// TenantSection holds the tenant-tier rejection counters and the
// per-tenant roster.
type TenantSection struct {
	RejectedRateLimited  int64           `json:"rejected_rate_limited,omitempty"`
	RejectedUnauthorized int64           `json:"rejected_unauthorized,omitempty"`
	Tenants              []TenantMetrics `json:"tenants,omitempty"`
}

// MetricsSnapshot is the JSON body of a single server's GET /metrics.
// It lives here with the other API shapes so the server, the client,
// and the cluster coordinator (which reads per-node metrics as load
// signals) cannot drift; internal/server aliases it.
type MetricsSnapshot struct {
	Queued   int   `json:"queued"`
	InFlight int64 `json:"in_flight"`
	JobCounters
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedInvalid   int64 `json:"rejected_invalid"`
	RejectedDraining  int64 `json:"rejected_draining"`
	Workers           int   `json:"workers"`

	// ProveInvocations counts prover entries. With idempotent submits it
	// equals the number of unique admitted jobs that reached the prover,
	// regardless of how many times each was (re)submitted.
	ProveInvocations int64 `json:"prove_invocations"`
	IdempotencyMetrics

	// QueueHighWater and QueueRejectedPushes come from the jobqueue
	// itself: the deepest the queue has ever been, and every push it
	// refused (full or closed) since startup.
	QueueHighWater      int   `json:"queue_high_water"`
	QueueRejectedPushes int64 `json:"queue_rejected_pushes"`

	ProveLatencyP50MS float64 `json:"prove_latency_p50_ms"`
	ProveLatencyP99MS float64 `json:"prove_latency_p99_ms"`
	QueueWaitP50MS    float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99MS    float64 `json:"queue_wait_p99_ms"`

	CacheMetrics

	// Precompiled-circuit registry counters; zero when disabled.
	RegistryHits     int64 `json:"registry_hits,omitempty"`
	RegistryMisses   int64 `json:"registry_misses,omitempty"`
	RegistryCompiles int64 `json:"registry_compiles,omitempty"`
	RegistryEntries  int   `json:"registry_entries,omitempty"`

	TenantSection

	// Journal is the write-ahead-journal section; nil when journaling is
	// off.
	Journal *JournalMetrics `json:"journal,omitempty"`
}

// JournalMetrics is the /metrics "journal" section: write-ahead log
// volume, fsync latency, segment/snapshot posture, and what the last
// crash recovery cost. Present only when a journal is configured.
type JournalMetrics struct {
	// Epoch is the persisted coordinator epoch (also on /healthz).
	Epoch uint64 `json:"epoch"`
	// RecordsAppended / RecordsReplayed count this process's journal
	// writes and its startup replay volume.
	RecordsAppended int64 `json:"records_appended"`
	RecordsReplayed int64 `json:"records_replayed"`
	// AppendErrors counts journal writes that failed after admission
	// control (disk trouble); the service keeps serving but durability
	// of those transitions is lost.
	AppendErrors int64 `json:"append_errors,omitempty"`
	// Fsyncs and the latency quantiles describe the configured fsync
	// policy's real cost.
	Fsyncs     int64   `json:"fsyncs"`
	FsyncP50MS float64 `json:"fsync_p50_ms"`
	FsyncP99MS float64 `json:"fsync_p99_ms"`
	// Segments counts live segment files; Snapshots counts compactions
	// this process wrote; SnapshotAgeMS is the time since the last one
	// (0 until the first).
	Segments      int   `json:"segments"`
	Snapshots     int64 `json:"snapshots"`
	SnapshotAgeMS int64 `json:"snapshot_age_ms"`
	// TruncatedTails counts torn/corrupt tail events recovered by
	// truncation+quarantine at startup replay.
	TruncatedTails int64 `json:"truncated_tails"`
	// RecoveryDurationMS is how long startup replay took;
	// RecoveredJobs counts non-terminal jobs restored into the pending
	// set, and RecoveryRedispatches how many of those had to be
	// re-dispatched after the restart.
	RecoveryDurationMS   int64 `json:"recovery_duration_ms"`
	RecoveredJobs        int64 `json:"recovered_jobs"`
	RecoveryRedispatches int64 `json:"recovery_redispatches"`
}

// TenantMetrics is one tenant's row in MetricsSnapshot.Tenants.
type TenantMetrics struct {
	Name        string `json:"name"`
	Class       int    `json:"class,omitempty"`
	Admitted    int64  `json:"admitted"`
	RateLimited int64  `json:"rate_limited,omitempty"`
	QuotaDenied int64  `json:"quota_denied,omitempty"`
	InFlight    int    `json:"in_flight,omitempty"`
}
