package server

import (
	"sort"
	"sync"
	"time"

	"unizk/internal/serverclient"
)

// MetricsSnapshot is the JSON shape of GET /metrics; it lives in
// serverclient with the other API types (the cluster coordinator decodes
// it as a per-node load signal).
type MetricsSnapshot = serverclient.MetricsSnapshot

// latWindow is the sliding-window size for latency quantiles.
const latWindow = 512

// latencySampler answers quantile queries over the last latWindow
// observations. Observability-only: nothing here feeds the Fiat–Shamir
// transcript, so wall-clock reads are safe.
type latencySampler struct {
	mu sync.Mutex
	//unizklint:guardedby mu
	ring [latWindow]time.Duration
	//unizklint:guardedby mu
	n int // total observations
}

func (l *latencySampler) add(d time.Duration) {
	l.mu.Lock()
	l.ring[l.n%latWindow] = d
	l.n++
	l.mu.Unlock()
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of the window, or 0 with
// no observations.
func (l *latencySampler) quantile(q float64) time.Duration {
	l.mu.Lock()
	size := min(l.n, latWindow)
	buf := make([]time.Duration, size)
	copy(buf, l.ring[:size])
	l.mu.Unlock()
	if size == 0 {
		return 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[int(q*float64(size-1))]
}
