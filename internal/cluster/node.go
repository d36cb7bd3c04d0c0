// Node handles: one per prover node, holding the serverclient the
// coordinator talks through (one exchange per call: no retry policy),
// the probed health/load picture, and the generation counter that
// invalidates job attributions when the node dies or restarts.
package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"

	"unizk/internal/serverclient"
)

type node struct {
	url    string
	client *serverclient.Client

	mu sync.Mutex
	// m is the node's row in the metrics roster, and the only copy of
	// its probed health/load picture: placement and /metrics read the
	// same fields. Probed flips true on the first successful probe and
	// never back: an address that has never answered is "unknown", not
	// "ejected", and cannot hold attributions worth invalidating.
	//unizklint:guardedby mu
	m NodeMetrics
	// gen bumps whenever in-flight attributions to this node become
	// invalid: on ejection and on epoch change. A job dispatched at
	// generation g is lost once n.gen > g.
	//unizklint:guardedby mu
	gen int64
	// epochGen is gen as of the last epoch change. A job dispatched at
	// generation g with epochGen > g was placed on a process that no
	// longer exists: whatever the address holds under the same remote id
	// or node key belongs to the current epoch and must not be canceled.
	//unizklint:guardedby mu
	epochGen int64
	//unizklint:guardedby mu
	lastOK time.Time
	// saturatedUntil backs off placement after the node refused a submit
	// with queue-full backpressure.
	//unizklint:guardedby mu
	saturatedUntil time.Time
}

// newNode builds a node handle whose client makes exactly one exchange
// per call. The prober alone decides that a node is lost, and dispatch's
// loops alone retry: a client-side retry would honour a refusal's
// Retry-After before dispatch could re-route the job.
func newNode(baseURL string, s settings) *node {
	hc := http.DefaultClient
	if s.Transport != nil {
		hc = &http.Client{Transport: s.Transport}
	}
	return &node{
		url:    baseURL,
		m:      NodeMetrics{URL: baseURL},
		client: &serverclient.Client{BaseURL: baseURL, HTTPClient: hc},
	}
}

// generation returns the node's current attribution generation.
func (n *node) generation() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.gen
}

// lostSince reports whether attributions made at generation g are now
// invalid.
func (n *node) lostSince(g int64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.gen > g
}

// ejectedSince reports whether attributions made at generation g were
// lost to ejection alone — the node's process is the one the job was
// placed on, so a remote job orphaned there is still worth canceling.
func (n *node) ejectedSince(g int64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.gen > g && n.epochGen <= g
}

// healthy reports admission-level eligibility. Saturation backoff
// deliberately does not count — a briefly-full node is healthy, and
// admission must not 503 because of it.
func (n *node) healthy() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.m.healthy()
}

// placeable reports placement-level eligibility: healthy and not inside
// a saturation backoff window.
func (n *node) placeable(now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.m.healthy() && !now.Before(n.saturatedUntil)
}

// score is the least-loaded placement key: work the node already has
// (probed queue depth + in-flight) plus work this coordinator has
// dispatched there that the probes may not reflect yet.
func (n *node) score() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.m.Queued + int(n.m.InFlight) + n.m.Outstanding
}

func (n *node) addOutstanding(d int) {
	n.mu.Lock()
	n.m.Outstanding += d
	n.mu.Unlock()
}

// markSaturated starts a placement backoff window.
func (n *node) markSaturated(d time.Duration) {
	n.mu.Lock()
	n.saturatedUntil = time.Now().Add(d)
	n.mu.Unlock()
}

func (n *node) proveLatencyP50() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.m.ProveLatencyP50MS
}

// probeLoop probes one node until the coordinator shuts down, the first
// time immediately so WaitReady clears as soon as the nodes answer.
func (x *remote) probeLoop(n *node) {
	defer x.probers.Done()
	t := time.NewTicker(x.cfg.ProbeInterval)
	defer t.Stop()
	for {
		x.probe(n)
		select {
		case <-x.core.Base().Done():
			return
		case <-t.C:
		}
	}
}

// probe performs one health+metrics exchange against the node and folds
// the outcome into its state: readmission on success after ejection,
// epoch-change detection when the node identity moved, ejection once
// failures have persisted past StaleAfter. Besides the prober, a watcher
// calls it when a node disowns a job, so the generation it re-places
// under already reflects a restart (the identity compare-and-set below
// runs under n.mu, so concurrent probes count one epoch change once).
func (x *remote) probe(n *node) {
	pctx, cancel := context.WithTimeout(x.core.Base(), x.cfg.probeTimeout)
	defer cancel()

	h, status, err := n.client.HealthAny(pctx)
	now := time.Now()
	if err != nil {
		n.mu.Lock()
		// Ejection is edge-triggered and conservative: only a once-healthy
		// node, and only after StaleAfter of failing probes — transient
		// chaos must not strand its in-flight jobs.
		eject := n.m.Probed && !n.m.Ejected && now.Sub(n.lastOK) > x.cfg.StaleAfter
		if eject {
			n.m.Ejected = true
			n.gen++
			n.m.Ejections++
		}
		n.mu.Unlock()
		if eject {
			x.met.ejections.Add(1)
		}
		return
	}

	var epochChanged, readmitted bool
	n.mu.Lock()
	if n.m.Probed && (n.m.NodeID != h.NodeID || n.m.StartNS != h.StartNS) {
		// Same address, different process: the node restarted and lost
		// its in-memory jobs. Everything attributed to the old epoch is
		// gone even though the address answers.
		epochChanged = true
		n.gen++
		n.epochGen = n.gen
		n.m.EpochChanges++
	}
	if n.m.Ejected {
		n.m.Ejected = false
		n.m.Readmissions++
		readmitted = true
	}
	n.m.Probed = true
	n.m.NodeID, n.m.StartNS = h.NodeID, h.StartNS
	n.lastOK = now
	n.m.Draining = h.Status == "draining" || status == 503
	n.m.InFlight, n.m.Queued = h.InFlight, h.Queued
	n.mu.Unlock()
	if epochChanged {
		x.met.epochChanges.Add(1)
	}
	if readmitted {
		x.met.readmissions.Add(1)
	}

	// Load detail is best-effort: the healthz probe alone keeps the node
	// routable, a failed metrics fetch only staleness placement signals.
	if m, merr := n.client.Metrics(pctx); merr == nil {
		n.mu.Lock()
		n.m.InFlight, n.m.Queued = m.InFlight, m.Queued
		n.m.QueueWaitP50MS = m.QueueWaitP50MS
		n.m.ProveLatencyP50MS = m.ProveLatencyP50MS
		n.m.ProveInvocations = m.ProveInvocations
		n.m.Completed = m.Completed
		n.mu.Unlock()
	}
}
