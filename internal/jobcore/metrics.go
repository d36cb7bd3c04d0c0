package jobcore

import (
	"errors"
	"sync/atomic"
	"time"

	"unizk/internal/serverclient"
)

// counters is the core's monotonic counter set (observability-only).
type counters struct {
	submitted       atomic.Int64 // jobs registered (incl. cache hits)
	completed       atomic.Int64
	failed          atomic.Int64 // jobs that errored (incl. deadline)
	canceled        atomic.Int64
	rejectedInvalid atomic.Int64 // submissions refused: bad request
	rejectedDrain   atomic.Int64 // not-yet-executing jobs rejected at drain
	rejectedLimited atomic.Int64 // submissions refused: tenant rate/quota (429)
	rejectedUnauth  atomic.Int64 // requests refused: unknown API key (401)
	idemHits        atomic.Int64 // submits deduplicated onto an existing job
	idemConflicts   atomic.Int64 // submits rejected: key reused with new request
}

func (m *counters) countTerminal(state State, err error) {
	switch {
	case state == StateDone:
		m.completed.Add(1)
	case state == StateCanceled:
		m.canceled.Add(1)
	case errors.Is(err, ErrDraining):
		m.rejectedDrain.Add(1)
	default:
		m.failed.Add(1)
	}
}

// Shared is the part of /metrics both tiers serve: the sections embed
// into each tier's document, so the JSON keys cannot drift apart.
type Shared struct {
	serverclient.JobCounters
	serverclient.IdempotencyMetrics
	serverclient.CacheMetrics
	serverclient.TenantSection
	RejectedInvalid  int64
	RejectedDraining int64
	Pending          int
	Draining         bool
	// Journal is nil when journaling is off.
	Journal *serverclient.JournalMetrics
}

// Shared snapshots the shared /metrics sections.
func (c *Core) Shared() Shared {
	sh := Shared{
		JobCounters: serverclient.JobCounters{
			Submitted: c.met.submitted.Load(),
			Completed: c.met.completed.Load(),
			Failed:    c.met.failed.Load(),
			Canceled:  c.met.canceled.Load(),
		},
		IdempotencyMetrics: serverclient.IdempotencyMetrics{
			IdempotentHits:      c.met.idemHits.Load(),
			IdempotentConflicts: c.met.idemConflicts.Load(),
		},
		TenantSection: serverclient.TenantSection{
			RejectedRateLimited:  c.met.rejectedLimited.Load(),
			RejectedUnauthorized: c.met.rejectedUnauth.Load(),
		},
		RejectedInvalid:  c.met.rejectedInvalid.Load(),
		RejectedDraining: c.met.rejectedDrain.Load(),
		Draining:         c.draining.Load(),
	}
	c.mu.Lock()
	sh.Pending = c.pending
	sh.IdempotencyEntries = len(c.idemIndex)
	c.mu.Unlock()
	if c.cache != nil {
		cs := c.cache.Stats()
		sh.CacheMetrics = serverclient.CacheMetrics{
			CacheHits:           cs.Hits,
			CacheMisses:         cs.Misses,
			CacheCoalesced:      cs.Coalesced,
			CacheEvicted:        cs.Evicted,
			CacheDeclined:       cs.Declined,
			CacheInserted:       cs.Inserted,
			CacheVerifyRejected: cs.VerifyRejected,
			CacheEntries:        cs.Entries,
		}
	}
	for _, t := range c.opt.Tenants.All() {
		// Field-for-field the same struct, which the conversion checks.
		sh.Tenants = append(sh.Tenants, serverclient.TenantMetrics(t.Stats()))
	}
	if c.jnl != nil {
		st := c.jnl.Stats()
		sh.Journal = &serverclient.JournalMetrics{
			Epoch:                c.epoch,
			RecordsAppended:      st.RecordsAppended,
			BytesAppended:        st.BytesAppended,
			ResultsShared:        st.ResultsShared,
			RecordsReplayed:      st.RecordsReplayed,
			AppendErrors:         st.AppendErrors,
			Fsyncs:               st.Fsyncs,
			FsyncP50MS:           MS(st.FsyncP50),
			FsyncP99MS:           MS(st.FsyncP99),
			Segments:             st.Segments,
			Snapshots:            st.Snapshots,
			SnapshotAgeMS:        st.SnapshotAge.Milliseconds(),
			TruncatedTails:       st.TruncatedTails,
			RecoveryDurationMS:   st.ReplayDuration.Milliseconds(),
			RecoveredJobs:        c.recoveredJobs,
			RecoveryRedispatches: c.recoveryRedispatches,
		}
	}
	return sh
}

// MS converts a duration to the metrics documents' fractional ms.
func MS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
