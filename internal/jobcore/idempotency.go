// Idempotent submission: submits carrying a jobs.Request.IdempotencyKey
// are deduplicated, so a client retrying a dropped or ambiguous submit
// converges on the same job — and, by the prover's determinism
// contract, on the same bit-identical proof — instead of proving twice.
// The index lives in the core, so it outlives whatever executes the
// job: a retry landing after a cluster failover still dedups onto the
// original job, whose retained result replays.
//
// The index maps a key to the job record it admitted, and the record
// carries the fingerprint of the full request encoding: same key and
// bytes is a dedup hit, same key with different bytes is
// ErrIdempotencyConflict (409). A binding expires IdempotencyTTL after
// its job was submitted, and it goes with the record when the record is
// retired; either way the key then admits fresh. Only in-flight and
// successful jobs replay — a job that ended canceled or failed drops
// its binding on the next lookup, so retrying after a drain rejection
// or a deadline re-proves rather than replaying the failure forever.
// The admitted record journals the request, key included, so recovery
// rebinds every restored key without a record of its own.
package jobcore

import (
	"crypto/sha256"
	"errors"
)

// ErrIdempotencyConflict rejects a submit whose idempotency key was
// already used for a different request; terminal for that (key, request).
var ErrIdempotencyConflict = errors.New("server: idempotency key reused with a different request")

type fingerprint = [sha256.Size]byte

// idemLookupLocked resolves a key to the job to replay, nil when the
// caller should admit fresh, or ErrIdempotencyConflict. Bindings that
// expired, or whose job failed, are dropped.
//
//unizklint:holds c.mu
func (c *Core) idemLookupLocked(key string, fp fingerprint) (*Job, error) {
	j, ok := c.idemIndex[key]
	if !ok {
		return nil, nil
	}
	j.mu.Lock()
	submitted, state := j.submitted, j.state
	j.mu.Unlock()
	if !submitted.Add(c.opt.IdempotencyTTL).After(c.clock()) {
		delete(c.idemIndex, key)
		return nil, nil
	}
	if j.fp != fp {
		c.met.idemConflicts.Add(1)
		return nil, ErrIdempotencyConflict
	}
	if state == StateFailed || state == StateCanceled {
		// Failures are not cached: the retry deserves a fresh prove.
		delete(c.idemIndex, key)
		return nil, nil
	}
	return j, nil
}
