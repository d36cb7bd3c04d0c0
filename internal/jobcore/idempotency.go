// Idempotent submission: submits carrying a jobs.Request.IdempotencyKey
// are deduplicated, so a client retrying a dropped or ambiguous submit
// converges on the same job — and, by the prover's determinism
// contract, on the same bit-identical proof — instead of proving twice.
// The index lives in the core, so it outlives whatever executes the
// job: a retry landing after a cluster failover still dedups onto the
// original job, whose retained result replays.
//
// It is a bounded, TTL'd map from key to the job it admitted,
// fingerprinted over the full request encoding: same key and bytes is a
// dedup hit, same key with different bytes is ErrIdempotencyConflict
// (409), and an expired or evicted entry admits fresh. Only in-flight
// and successful jobs replay — a job that ended canceled or failed
// drops its entry on the next lookup, so retrying after a drain
// rejection or a deadline re-proves rather than replaying the failure
// forever. The result bytes live in the job record and the index only
// points at it, so an entry goes when its record is retired.
package jobcore

import (
	"crypto/sha256"
	"errors"
	"time"
)

// ErrIdempotencyConflict rejects a submit whose idempotency key was
// already used for a different request; terminal for that (key, request).
var ErrIdempotencyConflict = errors.New("server: idempotency key reused with a different request")

type fingerprint = [sha256.Size]byte

// idemEntry records one admitted key.
type idemEntry struct {
	jobID   string
	fp      fingerprint
	seq     uint64
	expires time.Time
}

// idemOrderEntry is the FIFO eviction record; seq disambiguates a key
// that was re-admitted after its earlier entry was dropped.
type idemOrderEntry struct {
	key string
	seq uint64
}

// idemLookupLocked resolves a key to the job to replay, nil when the
// caller should admit fresh, or ErrIdempotencyConflict. Entries that
// expired, lost their job record, or whose job failed are dropped.
//
//unizklint:holds c.mu
func (c *Core) idemLookupLocked(key string, fp fingerprint) (*Job, error) {
	e, ok := c.idemIndex[key]
	if !ok {
		return nil, nil
	}
	j, live := c.jobsByID[e.jobID]
	if !live || !e.expires.After(c.clock()) {
		// Expired, or the record (and result) aged out: prove fresh.
		delete(c.idemIndex, key)
		return nil, nil
	}
	if e.fp != fp {
		c.met.idemConflicts.Add(1)
		return nil, ErrIdempotencyConflict
	}
	if state, _ := j.Outcome(); state == StateFailed || state == StateCanceled {
		// Failures are not cached: the retry deserves a fresh prove.
		delete(c.idemIndex, key)
		return nil, nil
	}
	return j, nil
}

// idemInsertLocked binds key → job, evicting the oldest entries beyond
// the configured bound.
//
//unizklint:holds c.mu
func (c *Core) idemInsertLocked(key string, fp fingerprint, jobID string) {
	c.idemBindLocked(key, fp, jobID, c.clock().Add(c.opt.IdempotencyTTL))
	for len(c.idemIndex) > c.opt.MaxIdempotencyKeys && len(c.idemOrder) > 0 {
		oldest := c.idemOrder[0]
		c.idemOrder = c.idemOrder[1:]
		if e, ok := c.idemIndex[oldest.key]; ok && e.seq == oldest.seq {
			delete(c.idemIndex, oldest.key)
		}
	}
}

// idemBindLocked records one binding; recovery restores through it.
//
//unizklint:holds c.mu
func (c *Core) idemBindLocked(key string, fp fingerprint, jobID string, expires time.Time) {
	c.idemSeq++
	c.idemIndex[key] = &idemEntry{jobID: jobID, fp: fp, seq: c.idemSeq, expires: expires}
	c.idemOrder = append(c.idemOrder, idemOrderEntry{key: key, seq: c.idemSeq})
}

// idemDeleteLocked removes a key if it still points at jobID.
//
//unizklint:holds c.mu
func (c *Core) idemDeleteLocked(key, jobID string) {
	if key == "" {
		return
	}
	if e, ok := c.idemIndex[key]; ok && e.jobID == jobID {
		delete(c.idemIndex, key)
	}
}
