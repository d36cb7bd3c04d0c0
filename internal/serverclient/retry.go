package serverclient

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy controls transparent retries inside Client.do. An attempt
// is retried only when autoRetryable classifies its error as safe to
// re-issue (transport faults, 429/502/503); terminal API errors and the
// caller's own context expiry always surface immediately.
//
// Delays use capped exponential backoff with full jitter: attempt n
// sleeps a uniformly random duration in [0, min(MaxDelay,
// BaseDelay·2ⁿ)], which decorrelates a fleet of clients retrying
// against the same recovering server. A Retry-After hint from the
// server overrides the jittered delay when it is longer — the server
// knows its own drain better than the client's backoff curve does.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts, including the first; values
	// below 1 mean DefaultMaxAttempts.
	MaxAttempts int
	// BaseDelay seeds the backoff curve; 0 means DefaultBaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps a single sleep; 0 means DefaultMaxDelay.
	MaxDelay time.Duration
	// Seed fixes the jitter stream for deterministic tests; 0 seeds
	// from the wall clock.
	Seed int64

	once sync.Once
	mu   sync.Mutex
	//unizklint:guardedby mu
	rng *rand.Rand

	// retries is the lifetime counter behind Stats.
	retries atomic.Int64
}

// RetryStats is a snapshot of a RetryPolicy's lifetime counter, so a
// load generator can report the retry pressure its clients met.
type RetryStats struct {
	// Retries counts attempts the policy allowed to be re-issued (each
	// corresponds to one backoff sleep).
	Retries int64
}

// Stats returns a snapshot of the policy's counter.
func (p *RetryPolicy) Stats() RetryStats {
	return RetryStats{Retries: p.retries.Load()}
}

// Defaults for the zero-valued fields of RetryPolicy.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = 50 * time.Millisecond
	DefaultMaxDelay    = 2 * time.Second
)

func (p *RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return DefaultMaxAttempts
	}
	return p.MaxAttempts
}

// next decides whether a failed attempt may be retried and, if so, how
// long to sleep first. attempt is 1-based (the attempt that just
// failed) and err is the failure being considered.
func (p *RetryPolicy) next(attempt int, err error) (time.Duration, bool) {
	if !autoRetryable(err) || attempt >= p.maxAttempts() {
		return 0, false
	}
	d := p.delay(attempt)
	if ra := retryAfterHint(err); ra > d {
		d = ra
	}
	p.retries.Add(1)
	return d, true
}

// delay computes the full-jitter backoff for the given 1-based attempt.
func (p *RetryPolicy) delay(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = DefaultBaseDelay
	}
	max := p.MaxDelay
	if max <= 0 {
		max = DefaultMaxDelay
	}
	ceil := base
	for i := 1; i < attempt && ceil < max; i++ {
		ceil *= 2
	}
	if ceil > max {
		ceil = max
	}
	p.once.Do(func() {
		seed := p.Seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		//unizklint:allow lockguard(sync.Once publishes the write; every reader goes through the same Do before touching rng)
		p.rng = rand.New(rand.NewSource(seed))
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Duration(p.rng.Int63n(int64(ceil) + 1))
}

// retryAfterHint extracts the server's Retry-After from an APIError
// chain, or 0 when there is none.
func retryAfterHint(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}
