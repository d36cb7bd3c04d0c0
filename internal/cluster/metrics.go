// Cluster metrics: the shared sections, the remote executor's counters,
// and a per-node roster with each node's probed load picture and its
// client stack's breaker/retry statistics.
package cluster

import (
	"sync/atomic"
	"time"

	"unizk/internal/jobcore"
	"unizk/internal/serverclient"
)

// metrics holds the remote executor's atomic counters; the lifecycle
// counters live in the core.
type metrics struct {
	rejectedSaturated atomic.Int64
	rejectedNoNodes   atomic.Int64

	// Failover machinery counters.
	redispatches atomic.Int64 // jobs re-placed after their node was lost
	recovered    atomic.Int64 // results salvaged from a lost node
	ejections    atomic.Int64 // stale-probe ejections
	readmissions atomic.Int64 // ejected nodes probed healthy again
	epochChanges atomic.Int64 // node restarts detected via healthz identity
}

// NodeMetrics is one node's row in the cluster metrics roster.
type NodeMetrics struct {
	URL     string `json:"url"`
	NodeID  string `json:"node_id,omitempty"`
	StartNS int64  `json:"start_ns,omitempty"`

	Probed  bool `json:"probed"`
	Ejected bool `json:"ejected"`
	// Draining mirrors the node's own /healthz drain state; a draining
	// node finishes what it has but must not receive new placements.
	Draining bool `json:"draining"`
	// LastProbeAgeMS climbs toward the ejection threshold while the node
	// is dark.
	LastProbeAgeMS int64 `json:"last_probe_age_ms"`

	// InFlight and Queued are probed; Outstanding counts cluster jobs this
	// coordinator currently has dispatched there — the placement signal
	// that reacts instantly, between probe ticks.
	InFlight    int64 `json:"in_flight"`
	Queued      int   `json:"queued"`
	Outstanding int   `json:"outstanding"`

	QueueWaitP50MS    float64 `json:"queue_wait_p50_ms"`
	ProveLatencyP50MS float64 `json:"prove_latency_p50_ms"`
	ProveInvocations  int64   `json:"prove_invocations"`
	Completed         int64   `json:"completed"`

	Ejections    int64 `json:"ejections"`
	Readmissions int64 `json:"readmissions"`
	EpochChanges int64 `json:"epoch_changes"`

	Breaker serverclient.BreakerStats `json:"breaker"`
	Retry   serverclient.RetryStats   `json:"retry"`
}

// healthy: probed at least once, not ejected, not draining.
func (m NodeMetrics) healthy() bool { return m.Probed && !m.Ejected && !m.Draining }

// ClusterMetrics is the JSON body of the coordinator's GET /metrics.
type ClusterMetrics struct {
	// Status is "ok" (all nodes healthy), "degraded" (some healthy),
	// "down" (none healthy), or "draining".
	Status       string `json:"status"`
	NodesTotal   int    `json:"nodes_total"`
	NodesHealthy int    `json:"nodes_healthy"`
	Pending      int    `json:"pending"`

	serverclient.JobCounters
	serverclient.IdempotencyMetrics

	RejectedSaturated int64 `json:"rejected_saturated"`
	RejectedNoNodes   int64 `json:"rejected_no_healthy_nodes"`
	RejectedInvalid   int64 `json:"rejected_invalid"`

	// Tenant-tier rejections, coordinator proof-cache counters (all zero
	// when the cache is off), and the per-tenant roster.
	serverclient.TenantSection
	serverclient.CacheMetrics

	// Journal is nil (and omitted) when journaling is off.
	Journal *serverclient.JournalMetrics `json:"journal,omitempty"`

	Redispatches int64 `json:"redispatches"`
	Recovered    int64 `json:"recovered"`
	Ejections    int64 `json:"ejections"`
	Readmissions int64 `json:"readmissions"`
	EpochChanges int64 `json:"epoch_changes"`

	Nodes []NodeMetrics `json:"nodes"`
}

func (x *remote) Metrics(sh jobcore.Shared) any {
	now := time.Now()
	m := ClusterMetrics{
		NodesTotal:         len(x.nodes),
		Pending:            sh.Pending,
		JobCounters:        sh.JobCounters,
		IdempotencyMetrics: sh.IdempotencyMetrics,

		RejectedSaturated: x.met.rejectedSaturated.Load(),
		RejectedNoNodes:   x.met.rejectedNoNodes.Load(),
		RejectedInvalid:   sh.RejectedInvalid,

		TenantSection: sh.TenantSection,
		CacheMetrics:  sh.CacheMetrics,
		Journal:       sh.Journal,

		Redispatches: x.met.redispatches.Load(),
		Recovered:    x.met.recovered.Load(),
		Ejections:    x.met.ejections.Load(),
		Readmissions: x.met.readmissions.Load(),
		EpochChanges: x.met.epochChanges.Load(),
	}
	for _, n := range x.nodes {
		n.mu.Lock()
		row := n.m
		if !n.lastOK.IsZero() {
			row.LastProbeAgeMS = now.Sub(n.lastOK).Milliseconds()
		}
		n.mu.Unlock()
		row.Breaker = n.breaker.Stats()
		row.Retry = n.retry.Stats()
		if row.healthy() {
			m.NodesHealthy++
		}
		m.Nodes = append(m.Nodes, row)
	}
	switch {
	case sh.Draining:
		m.Status = "draining"
	case m.NodesHealthy == 0:
		m.Status = "down"
	case m.NodesHealthy < m.NodesTotal:
		m.Status = "degraded"
	default:
		m.Status = "ok"
	}
	return m
}
