// Job dispatch and failover. Each started job gets a watcher goroutine
// that places it on the least-loaded healthy node, submits it under the
// stable "cluster/<id>" idempotency key, and polls for the result. The
// exactly-once discipline lives here:
//
//   - An *ambiguous* submit failure (transport fault, breaker open,
//     unclassified 5xx) may mean the node admitted the job before the
//     reply was lost — so the watcher sticks to that node and resubmits
//     the same key until the node either answers (dedup attaches to the
//     original job) or is declared lost. Re-routing on ambiguity would
//     risk proving the job on two nodes.
//   - Only a *provable non-admission* — the node's own "queue_full" or
//     "draining" class, which it emits strictly before enqueueing — is
//     safe to re-route immediately.
//   - A node is *lost* for a job when its generation moved past the
//     dispatch generation: the prober ejected it (probes stale beyond
//     StaleAfter) or its /healthz epoch changed (restart). Before
//     re-dispatching, the watcher makes one last bounded attempt to
//     fetch the finished result from the old address, so a proof that
//     actually completed is recovered instead of recomputed.
//   - A node that *disowns* the job (404, swept by its drain, or
//     canceled there by someone other than this job's own context) is
//     lost for it too. The watcher may learn of a restart from the 404
//     before the prober does, so it re-probes the node before re-placing:
//     the epoch change is then already in the generation the new
//     placement is made under, instead of a later bump declaring *that*
//     placement lost. And it never cancels a remote job across an epoch
//     change: on a restarted node the stable key can only name the new
//     epoch's live job.
package cluster

import (
	"context"
	"errors"
	"net/http"
	"time"

	"unizk/internal/jobcore"
	"unizk/internal/jobs"
	"unizk/internal/serverclient"
)

// Internal dispatch outcomes.
var (
	// errNodeLost: the node was ejected, changed epoch, or disowns the
	// job, which must be re-dispatched.
	errNodeLost = errors.New("cluster: node lost")
	// errNodeBusy: the node provably refused the submit before admission;
	// another node may be tried immediately.
	errNodeBusy = errors.New("cluster: node refused submission")
)

// watch drives one cluster job to a terminal state.
func (x *remote) watch(j *jobcore.Job, p *placement) {
	defer x.watchers.Done()
	res, err := x.runJob(j, p)
	if cerr := j.Context().Err(); err != nil && errors.Is(err, cerr) {
		// The job's own context ended it: cancel the remote job so the
		// node does not burn a prover slot on a result nobody will read,
		// and surface the context's error (deadline or canceled).
		x.cancelRemote(p)
		err = cerr
	}
	// Free the PendingCap slot before waiters are released, so a client
	// that saw its job finish can always submit the next one.
	x.active.Add(-1)
	x.core.Finish(j, res, err)
}

// runJob is the placement/failover loop: pick a node, run the job
// there, and return its outcome or — node lost or busy — try another.
func (x *remote) runJob(j *jobcore.Job, p *placement) (*jobs.Result, error) {
	ctx := j.Context()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := x.pickNode()
		if n == nil {
			// Nothing placeable right now. The job stays admitted; placement
			// retries on the probe cadence until a node recovers or the
			// job's deadline expires.
			if !sleepCtx(ctx, x.cfg.ProbeInterval) {
				return nil, ctx.Err()
			}
			continue
		}
		res, err := x.runOn(j, p, n)
		switch {
		case err == nil:
			return res, nil
		case errors.Is(err, errNodeLost):
			p.mu.Lock()
			genAt := p.genAt
			p.mu.Unlock()
			if n.ejectedSince(genAt) {
				// If the ejected node is actually alive (probes starved or
				// chaos-eaten), the orphaned remote job would burn a prover
				// slot for nobody. Best-effort cancel it; against a truly
				// dead node this fails fast (breaker or refused dial).
				x.cancelRemote(p)
			}
			x.met.redispatches.Add(1)
			p.mu.Lock()
			p.redispatches++
			p.node, p.remoteID = nil, ""
			p.mu.Unlock()
			continue
		case errors.Is(err, errNodeBusy):
			continue
		default:
			return nil, err
		}
	}
}

// pickNode returns the placeable node with the lowest load score, or
// nil; ties break by node-list order, keeping placement deterministic.
func (x *remote) pickNode() *node {
	now := time.Now()
	var best *node
	bestScore := 0
	for _, n := range x.nodes {
		if !n.placeable(now) {
			continue
		}
		if s := n.score(); best == nil || s < bestScore {
			best, bestScore = n, s
		}
	}
	return best
}

// runOn dispatches the job to one node and sees it through to a result
// there, or to errNodeLost/errNodeBusy for the outer loop.
func (x *remote) runOn(j *jobcore.Job, p *placement, n *node) (*jobs.Result, error) {
	gen := n.generation()
	p.mu.Lock()
	p.node, p.genAt = n, gen
	p.mu.Unlock()
	x.core.Dispatch(j, n.url)

	n.addOutstanding(1)
	defer n.addOutstanding(-1)

	remoteID, err := x.submitTo(j, n, gen)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.remoteID = remoteID
	p.mu.Unlock()
	return x.awaitResult(j, p, n, gen, remoteID)
}

// submitTo places the job on the node under its stable cluster
// idempotency key, retrying ambiguous failures against the same node.
func (x *remote) submitTo(j *jobcore.Job, n *node, gen int64) (string, error) {
	// The node-side key is "cluster/<id>", not the client's key: it is
	// stable across resubmits, re-dispatches and coordinator restarts,
	// never collides between cluster jobs, and — because IdempotencyKey
	// is excluded from what the prover sees — leaves the proof bytes
	// identical to a direct submission.
	ctx := j.Context()
	req := *j.Req
	req.IdempotencyKey = "cluster/" + j.ID
	opts := serverclient.Options{Priority: j.Priority}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			opts.Timeout = rem
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		reply, err := n.client.SubmitDetail(ctx, &req, opts)
		if err == nil {
			return reply.ID, nil
		}
		if refusedBeforeAdmission(err) {
			n.markSaturated(x.cfg.SaturationBackoff)
			return "", errNodeBusy
		}
		if terminalSubmitError(err) {
			return "", err
		}
		// Ambiguous: the submit may or may not have been admitted.
		// Stick with this node — resubmitting the same key is safe and
		// converges — unless the prober has declared it lost.
		if n.lostSince(gen) {
			return "", errNodeLost
		}
		if !sleepCtx(ctx, x.cfg.PollInterval) {
			return "", ctx.Err()
		}
	}
}

// refusedBeforeAdmission reports a *provable* non-admission: the node's
// own backpressure/drain classes, emitted strictly before a job is
// enqueued. A 503 with any other class (a fault injector's blip) proves
// nothing about admission and must be treated as ambiguous.
func refusedBeforeAdmission(err error) bool {
	var ae *serverclient.APIError
	if !errors.As(err, &ae) {
		return false
	}
	return ae.Class == "queue_full" || ae.Class == "draining"
}

// terminalSubmitError reports a decided, non-retryable API reply to the
// submit itself (malformed request, idempotency conflict, …): the job
// fails with that error rather than being re-dispatched.
func terminalSubmitError(err error) bool {
	var ae *serverclient.APIError
	if !errors.As(err, &ae) {
		return false
	}
	return !ae.Retryable()
}

// awaitResult polls the node for the remote job's outcome.
func (x *remote) awaitResult(j *jobcore.Job, p *placement, n *node, gen int64, remoteID string) (*jobs.Result, error) {
	ctx := j.Context()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := n.client.Result(ctx, remoteID)
		if err == nil {
			x.recordCompletion(p, n)
			return res, nil
		}
		switch classifyAwait(err) {
		case awaitPoll:
			// Not ready, or a transient fault/reply; keep polling unless
			// the prober has declared the node lost — then try to salvage
			// the result before re-dispatching.
			if n.lostSince(gen) {
				if res, ok := x.tryRecover(j, n, remoteID); ok {
					x.recordCompletion(p, n)
					return res, nil
				}
				return nil, errNodeLost
			}
		case awaitGone:
			// The node answered and disowns the job: nothing to recover.
			// Probe now, so a restart is in the generation the next
			// placement reads (see the file comment).
			x.probe(n)
			return nil, errNodeLost
		case awaitTerminal:
			// The remote job's own decided outcome. Re-proving elsewhere
			// would fail identically or double-prove a job whose invocation
			// already counted; the cluster job inherits the outcome.
			return nil, err
		}
		if !sleepCtx(ctx, x.cfg.PollInterval) {
			return nil, ctx.Err()
		}
	}
}

// Await-poll classification buckets.
const (
	awaitPoll = iota
	awaitGone
	awaitTerminal
)

func classifyAwait(err error) int {
	if errors.Is(err, serverclient.ErrNotReady) {
		return awaitPoll
	}
	var ae *serverclient.APIError
	if !errors.As(err, &ae) {
		// Transport fault or breaker open: the fetch, not the job,
		// failed.
		return awaitPoll
	}
	switch {
	case ae.StatusCode == http.StatusNotFound:
		return awaitGone
	case ae.Class == "draining":
		// Swept out of the node's queue by a drain without ever reaching
		// the prover: safe and necessary to place again.
		return awaitGone
	case ae.Class == "canceled":
		// Canceled on the node, but not by this job's context (the watcher
		// cancels remotely only after it stops polling): the node was
		// force-drained, or the cancel was aimed at an earlier placement.
		// Nobody asked for the cluster job to end, so it is placed again; a
		// canceled job drops its key on the node, so the resubmit proves.
		return awaitGone
	case ae.StatusCode == http.StatusTooManyRequests,
		ae.StatusCode == http.StatusServiceUnavailable,
		ae.StatusCode == http.StatusBadGateway:
		// Injected blips and backpressure on the *fetch*: transient.
		return awaitPoll
	default:
		return awaitTerminal
	}
}

// tryRecover makes one bounded attempt to fetch the finished result
// from a node that was just declared lost: if it was ejected spuriously
// and the proof completed, this salvages it instead of re-proving.
func (x *remote) tryRecover(j *jobcore.Job, n *node, remoteID string) (*jobs.Result, bool) {
	rctx, cancel := context.WithTimeout(j.Context(), x.cfg.RecoverTimeout)
	defer cancel()
	res, err := n.client.Result(rctx, remoteID)
	if err != nil {
		return nil, false
	}
	x.met.recovered.Add(1)
	return res, true
}

// recordCompletion pins which node (and epoch) produced the result.
func (x *remote) recordCompletion(p *placement, n *node) {
	n.mu.Lock()
	id := n.m.NodeID
	n.mu.Unlock()
	p.mu.Lock()
	p.doneNodeURL = n.url
	p.doneNodeID = id
	p.mu.Unlock()
}

// cancelRemote best-effort cancels the attributed remote job, outside
// the job's (ended) context and bounded so a dead node cannot hang it.
func (x *remote) cancelRemote(p *placement) {
	p.mu.Lock()
	n, remoteID := p.node, p.remoteID
	p.mu.Unlock()
	if n == nil || remoteID == "" {
		return
	}
	cctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = n.client.Cancel(cctx, remoteID)
}
