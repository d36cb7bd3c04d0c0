// Package tenant implements the serving stack's multi-tenant tier:
// API-key authentication, per-tenant token-bucket rate limits, in-flight
// quotas, and priority classes mapped onto the jobqueue's priority
// lanes. The model is deliberately small — a static registry configured
// at startup from CLI flags — because the interesting part is the
// *enforcement seam*: every admission (server or cluster coordinator)
// authenticates, takes a rate token, and holds an in-flight slot for the
// job's lifetime, and every rejection carries a computed Retry-After so
// well-behaved clients back off instead of hammering.
//
// Unauthenticated requests resolve to the default tenant, which is
// unlimited unless explicitly configured — that keeps every existing
// test, CLI, and single-user deployment working with zero configuration.
package tenant

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrUnknownKey rejects a request presenting an API key the registry
// does not know. Mapped to HTTP 401 by internal/server.
var ErrUnknownKey = errors.New("tenant: unknown API key")

// DefaultName is the tenant unauthenticated requests resolve to.
const DefaultName = "default"

// Limit reasons carried on LimitError and used as HTTP error classes.
const (
	ReasonRateLimited   = "rate_limited"
	ReasonQuotaExceeded = "quota_exceeded"
)

// LimitError is a per-tenant admission rejection: the token bucket is
// empty (ReasonRateLimited) or the in-flight quota is full
// (ReasonQuotaExceeded). Both map to HTTP 429; RetryAfter is the
// server's computed backoff hint (for rate limits, the time until the
// bucket refills one token).
type LimitError struct {
	Tenant     string
	Reason     string
	RetryAfter time.Duration
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("tenant %q %s (retry after %s)", e.Tenant, e.Reason, e.RetryAfter)
}

// Config describes one tenant. The zero limits mean "unlimited": Rate 0
// disables the token bucket, MaxInFlight 0 disables the quota.
type Config struct {
	// Name identifies the tenant in metrics and error bodies.
	Name string
	// Key is the API key presented in Authorization: Bearer <key> or
	// X-API-Key. Empty is only valid for the default tenant.
	Key string
	// Class is the priority class (higher schedules first). Client
	// per-request priorities still order work *within* a class; see
	// EffectivePriority.
	Class int
	// Rate is the sustained submissions-per-second budget; Burst is the
	// bucket depth (defaults to max(1, ceil(Rate)) when 0).
	Rate float64
	// Burst is the token-bucket capacity.
	Burst int
	// MaxInFlight bounds the tenant's concurrently admitted (queued or
	// running) jobs.
	MaxInFlight int
}

// ParseSpec parses one -tenant flag value of the form
// "name:key[:class=N][:rate=R][:burst=B][:inflight=M]".
func ParseSpec(spec string) (Config, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
		return Config{}, fmt.Errorf("tenant: spec %q: want name:key[:class=N][:rate=R][:burst=B][:inflight=M]", spec)
	}
	cfg := Config{Name: parts[0], Key: parts[1]}
	for _, opt := range parts[2:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return Config{}, fmt.Errorf("tenant: spec %q: bad option %q", spec, opt)
		}
		switch k {
		case "class":
			n, err := strconv.Atoi(v)
			if err != nil {
				return Config{}, fmt.Errorf("tenant: spec %q: class: %w", spec, err)
			}
			cfg.Class = n
		case "rate":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 {
				return Config{}, fmt.Errorf("tenant: spec %q: rate %q", spec, v)
			}
			cfg.Rate = f
		case "burst":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Config{}, fmt.Errorf("tenant: spec %q: burst %q", spec, v)
			}
			cfg.Burst = n
		case "inflight":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Config{}, fmt.Errorf("tenant: spec %q: inflight %q", spec, v)
			}
			cfg.MaxInFlight = n
		default:
			return Config{}, fmt.Errorf("tenant: spec %q: unknown option %q", spec, k)
		}
	}
	return cfg, nil
}

// Tenant is one registered tenant's live state: identity, token bucket,
// in-flight count, and counters.
type Tenant struct {
	cfg Config
	reg *Registry

	mu sync.Mutex
	//unizklint:guardedby mu
	tokens float64
	//unizklint:guardedby mu
	lastRefill time.Time
	//unizklint:guardedby mu
	inFlight int

	admitted    atomic.Int64
	rateLimited atomic.Int64
	quotaDenied atomic.Int64
}

// Name returns the tenant's configured name.
func (t *Tenant) Name() string { return t.cfg.Name }

// classBand is the priority distance between adjacent tenant classes;
// client per-request priorities are clamped to within half a band so no
// client-chosen value can cross into another class's lane.
const classBand = 1 << 16

// EffectivePriority maps (tenant class, client priority) onto the
// jobqueue's single priority dimension: class picks the lane, the
// clamped client priority orders within it.
func (t *Tenant) EffectivePriority(clientPriority int) int {
	if clientPriority > classBand/2-1 {
		clientPriority = classBand/2 - 1
	}
	if clientPriority < -classBand/2 {
		clientPriority = -classBand / 2
	}
	return t.cfg.Class*classBand + clientPriority
}

// refillLocked advances the token bucket to now.
//
//unizklint:holds t.mu
func (t *Tenant) refillLocked(now time.Time) {
	if t.cfg.Rate <= 0 {
		return
	}
	burst := t.burst()
	if t.lastRefill.IsZero() {
		t.lastRefill = now
		t.tokens = float64(burst)
		return
	}
	dt := now.Sub(t.lastRefill).Seconds()
	if dt <= 0 {
		return
	}
	t.tokens = math.Min(float64(burst), t.tokens+dt*t.cfg.Rate)
	t.lastRefill = now
}

func (t *Tenant) burst() int {
	if t.cfg.Burst > 0 {
		return t.cfg.Burst
	}
	b := int(math.Ceil(t.cfg.Rate))
	if b < 1 {
		b = 1
	}
	return b
}

// AllowSubmit takes one rate token, erring with a ReasonRateLimited
// LimitError (RetryAfter = time until one token refills) when the
// bucket is empty. Unlimited tenants always pass.
func (t *Tenant) AllowSubmit() error {
	if t.cfg.Rate <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.refillLocked(t.reg.clock())
	if t.tokens >= 1 {
		t.tokens--
		return nil
	}
	t.rateLimited.Add(1)
	wait := time.Duration((1 - t.tokens) / t.cfg.Rate * float64(time.Second))
	if wait < time.Second {
		wait = time.Second
	}
	return &LimitError{Tenant: t.cfg.Name, Reason: ReasonRateLimited, RetryAfter: wait}
}

// AcquireSlot claims one in-flight slot for an admitted job; the caller
// must Release it when the job reaches a terminal state. retryAfter is
// the hint attached to a quota rejection (the server passes its
// p50-prove-latency-based estimate).
func (t *Tenant) AcquireSlot(retryAfter time.Duration) error {
	if t.cfg.MaxInFlight <= 0 {
		t.admitted.Add(1)
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inFlight >= t.cfg.MaxInFlight {
		t.quotaDenied.Add(1)
		if retryAfter <= 0 {
			retryAfter = time.Second
		}
		return &LimitError{Tenant: t.cfg.Name, Reason: ReasonQuotaExceeded, RetryAfter: retryAfter}
	}
	t.inFlight++
	t.admitted.Add(1)
	return nil
}

// RecordAdmit counts a submission served without claiming a slot — a
// cache hit, an idempotent replay, or a coalesced attach to a running
// job. Keeps the Admitted counter meaning "submissions this tenant had
// accepted", whether or not they cost a prove.
func (t *Tenant) RecordAdmit() {
	t.admitted.Add(1)
}

// Release returns an in-flight slot claimed by AcquireSlot.
func (t *Tenant) Release() {
	if t.cfg.MaxInFlight <= 0 {
		return
	}
	t.mu.Lock()
	if t.inFlight > 0 {
		t.inFlight--
	}
	t.mu.Unlock()
}

// Stats is one tenant's metrics row.
type Stats struct {
	Name        string
	Class       int
	Admitted    int64
	RateLimited int64
	QuotaDenied int64
	InFlight    int
}

// Stats snapshots the tenant's counters.
func (t *Tenant) Stats() Stats {
	t.mu.Lock()
	inFlight := t.inFlight
	t.mu.Unlock()
	return Stats{
		Name:        t.cfg.Name,
		Class:       t.cfg.Class,
		Admitted:    t.admitted.Load(),
		RateLimited: t.rateLimited.Load(),
		QuotaDenied: t.quotaDenied.Load(),
		InFlight:    inFlight,
	}
}

// Registry resolves API keys to tenants. Immutable after construction,
// so lookups are lock-free; the per-tenant buckets carry their own
// locks.
type Registry struct {
	byKey map[string]*Tenant
	def   *Tenant
	all   []*Tenant

	mu sync.Mutex
	//unizklint:guardedby mu
	now func() time.Time // test hook; nil means time.Now
}

// NewRegistry builds a registry from tenant configs. A config named
// DefaultName (or with an empty key) replaces the built-in unlimited
// default tenant — that is how a deployment imposes limits on anonymous
// traffic. Duplicate names or keys are rejected.
func NewRegistry(cfgs ...Config) (*Registry, error) {
	r := &Registry{byKey: make(map[string]*Tenant)}
	names := make(map[string]bool)
	for _, cfg := range cfgs {
		if cfg.Name == "" {
			return nil, errors.New("tenant: config with empty name")
		}
		if names[cfg.Name] {
			return nil, fmt.Errorf("tenant: duplicate name %q", cfg.Name)
		}
		names[cfg.Name] = true
		t := &Tenant{cfg: cfg, reg: r}
		if cfg.Key == "" || cfg.Name == DefaultName {
			if r.def != nil {
				return nil, errors.New("tenant: more than one default tenant")
			}
			r.def = t
		}
		if cfg.Key != "" {
			if _, dup := r.byKey[cfg.Key]; dup {
				return nil, fmt.Errorf("tenant: duplicate key for %q", cfg.Name)
			}
			r.byKey[cfg.Key] = t
		}
		r.all = append(r.all, t)
	}
	if r.def == nil {
		r.def = &Tenant{cfg: Config{Name: DefaultName}, reg: r}
		r.all = append([]*Tenant{r.def}, r.all...)
	}
	return r, nil
}

func (r *Registry) clock() time.Time {
	r.mu.Lock()
	now := r.now
	r.mu.Unlock()
	if now != nil {
		return now()
	}
	return time.Now()
}

// SetClock installs a time source for tests.
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
}

// Authenticate resolves an API key: empty key → default tenant, known
// key → its tenant, unknown key → ErrUnknownKey (HTTP 401 upstream —
// presenting a bad credential is an error; presenting none is anonymous
// traffic).
func (r *Registry) Authenticate(key string) (*Tenant, error) {
	if key == "" {
		return r.def, nil
	}
	if t, ok := r.byKey[key]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("%w", ErrUnknownKey)
}

// Default returns the default tenant.
func (r *Registry) Default() *Tenant { return r.def }

// All returns every tenant in registration order (default first when
// synthesized).
func (r *Registry) All() []*Tenant { return r.all }
