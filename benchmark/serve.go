package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/serverclient"
)

// An untraced served run proves every distinct content in-process, through
// the library path, before the server starts (which yields the references),
// and its libraryContents most popular contents again after each segment
// of its closed loop, so that the samples of prove_p25_s lie across the
// run: as many segments, between the two limits, as leave the loop three
// quarters of the measuring time. Each pass is followed by verifySweeps
// decodes and checks of one proof of each of its contents, the samples of
// verify_p25_ms. serve-hot's 24 contents take 2 s a pass, which left three
// samples a content; the head of its popularity order takes a third of that.
const (
	libraryContents = 8
	minLoopSegments = 2
	maxLoopSegments = 8
	verifySweeps    = 3
)

// minWindow is the least number of requests in a closed-loop window. A
// window is a whole number of decks (loadgen.go), so that every window is
// timed on the same mix of contents; throughput_per_s is the window's
// requests over the lower quartile of the windows' times.
const minWindow = 32

// phase of a served run a request belongs to.
const (
	phaseClosed = iota
	phaseOpen
)

// sample is one served request as the client saw it.
type sample struct {
	phase  int
	inst   int
	traced bool
	ok     bool

	done    time.Time     // proof bytes in hand
	latency time.Duration // from due (open loop) or send (closed loop) to done
	lag     time.Duration // due to send
	capHit  bool
	submit  time.Duration // the POST: async submit, or the whole sync prove
	wait    time.Duration // SSE status stream (async only)
	fetch   time.Duration // proof fetch (async only)

	// From the terminal JobStatus (async only).
	queueWait time.Duration
	prove     time.Duration
}

// servedRun holds the state of one served workload run.
type servedRun struct {
	w       workload
	provers []*prover
	srv     *child
	clients []*serverclient.Client // one per tenant
	retry   *serverclient.RetryPolicy
	draws   *drawer
	tr      *tracer
	out     *outcome

	// Samples of the library path, per content (prove.go's perContent),
	// with the host's share taken out.
	proveS  [][]float64 // Job.Prove seconds, one per reference pass
	verifyS [][]float64 // decode + Job.Check seconds, one per sweep
	bytes   int         // summed wire-encoded results of the last sweep

	mu      sync.Mutex
	samples []sample
	served  map[int][]byte // last wire-encoded result served per content
	nextReq int

	// Closed-loop windows of window requests each. The one being filled
	// has winCount requests so far, took winBanked seconds in earlier
	// segments of the loop and is timed by win in this one; winS are the
	// seconds each full one took, rss the server's resident set in MB when
	// each ended. Seconds have the host's share taken out.
	window    int
	win       block
	winCount  int
	winBanked float64
	winS      []float64
	rss       []float64
}

// startServer starts the workload's server child with a fresh journal
// directory where the workload has one.
func startServer(cfg *config, w workload, attempt int) (*child, error) {
	args := append([]string(nil), w.ServerArgs...)
	for i, a := range args {
		if a == "JOURNAL" {
			dir := cfg.outPath(fmt.Sprintf("journal-%s-%d", w.Name, attempt))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			args[i] = dir
		}
	}
	return startChild(cfg.bin("unizk-server"), "server-"+w.Name, cfg.outDir, args...)
}

// newClients returns one client per tenant (one keyless client when the
// workload has none), sharing a connection pool and a retry policy.
func newClients(url string, keys []string) ([]*serverclient.Client, *serverclient.RetryPolicy) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}}
	retry := &serverclient.RetryPolicy{MaxAttempts: 2}
	if len(keys) == 0 {
		keys = []string{""}
	}
	out := make([]*serverclient.Client, len(keys))
	for i, k := range keys {
		out[i] = &serverclient.Client{BaseURL: url, HTTPClient: hc, Retry: retry, APIKey: k}
	}
	return out, retry
}

// request sends one request through the workload's protocol and returns
// the result with the client-side timings. due is when it should have
// been sent.
func (s *servedRun) request(ctx context.Context, d draw, due time.Time, phase int, capHit, traced bool) {
	p := s.provers[d.inst]
	c := s.clients[d.tenant]
	sm := sample{phase: phase, inst: d.inst, traced: traced, capHit: capHit}

	var tr *tracer
	if traced {
		tr = s.tr
	}
	s.mu.Lock()
	req := s.nextReq
	s.nextReq++
	s.mu.Unlock()
	root := tr.start(noSpan, req, "request:"+p.inst.String(), due)
	sent := time.Now()
	sm.lag = sent.Sub(due)
	tr.end(tr.start(root, req, "loadgen.wait", due), nil)

	var res *jobs.Result
	var err error
	if s.w.Sync {
		id := tr.start(root, req, "serverclient.prove", sent)
		res, err = c.Prove(ctx, p.req, serverclient.Options{})
		tr.end(id, nil)
		sm.submit = time.Since(sent)
	} else {
		id := tr.start(root, req, "serverclient.submit", sent)
		var reply *serverclient.SubmitReply
		reply, err = c.SubmitDetail(ctx, p.req, serverclient.Options{})
		tr.end(id, nil)
		t1 := time.Now()
		sm.submit = t1.Sub(sent)
		if err == nil {
			id = tr.start(root, req, "serverclient.wait", t1)
			var st *serverclient.JobStatus
			st, err = c.StreamStatus(ctx, reply.ID, nil)
			t2 := time.Now()
			sm.wait = t2.Sub(t1)
			var busy map[string]float64
			if err == nil {
				sm.queueWait = time.Duration(st.QueueWaitMS) * time.Millisecond
				sm.prove = time.Duration(st.ProveMS) * time.Millisecond
				busy = map[string]float64{"server.queue_wait": sm.queueWait.Seconds(), "server.prove": sm.prove.Seconds()}
			}
			tr.end(id, busy)
			if err == nil {
				id = tr.start(root, req, "serverclient.fetch", t2)
				res, err = c.Result(ctx, reply.ID)
				tr.end(id, nil)
				sm.fetch = time.Since(t2)
			}
		}
	}
	done := time.Now()
	tr.end(root, nil)
	sm.done, sm.latency = done, done.Sub(due)

	// Correctness: the bytes must be the direct-path reference for this
	// content, and must have arrived within the limit.
	id := tr.start(noSpan, req, "check", done)
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "benchmark: %s: request failed: %v\n", p.inst, err)
	case !p.matches(res):
		fmt.Fprintf(os.Stderr, "benchmark: %s: served proof differs from the direct-path reference\n", p.inst)
		s.mu.Lock()
		s.out.correct = false
		s.mu.Unlock()
	case sm.latency > s.w.Limit:
		fmt.Fprintf(os.Stderr, "benchmark: %s: reply after %v, limit %v\n", p.inst, sm.latency, s.w.Limit)
	default:
		sm.ok = true
	}
	var raw []byte
	if sm.ok {
		raw, _ = res.MarshalBinary() // Result.MarshalBinary cannot fail
	}
	tr.end(id, nil)

	s.mu.Lock()
	s.samples = append(s.samples, sm)
	if raw != nil {
		s.served[d.inst] = raw
	}
	if phase == phaseClosed {
		s.winCount++
		if s.winCount == s.window {
			s.winS = append(s.winS, s.winBanked+s.win.seconds())
			if rss, err := rssMB(s.srv.pid(), "VmRSS"); err == nil {
				s.rss = append(s.rss, rss)
			}
			s.win, s.winCount, s.winBanked = startBlock(), 0, 0
		}
	}
	s.mu.Unlock()
}

// closedLoop runs nproc clients, each sending its next request when the
// previous one has completed, for dur, and cuts the completions into
// windows. A window left unfinished is carried into the next call with the
// time it has taken so far.
func (s *servedRun) closedLoop(ctx context.Context, dur time.Duration) {
	start := time.Now()
	s.mu.Lock()
	s.win = startBlock()
	s.mu.Unlock()
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur && ctx.Err() == nil {
				s.request(ctx, s.draws.next(), time.Now(), phaseClosed, false, false)
			}
		}()
	}
	wg.Wait()
	s.mu.Lock()
	s.winBanked += s.win.seconds()
	s.mu.Unlock()
}

// openLoop sends the scheduled requests at their due times whatever the
// server does, on at most 2·nproc connections. With a tracer, every other
// request records spans, so traced and untraced requests see the same
// load and their medians differ by the tracing overhead. It returns the
// wall time until the last reply.
func (s *servedRun) openLoop(ctx context.Context, due []time.Duration) float64 {
	start := time.Now()
	slots := make(chan struct{}, 2*runtime.NumCPU()) // semaphore: the connection cap
	var wg sync.WaitGroup
	for i, off := range due {
		at := start.Add(off)
		if wait := time.Until(at); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		capHit := false
		select {
		case slots <- struct{}{}:
		default:
			capHit = true
			slots <- struct{}{}
		}
		d := s.draws.next()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			s.request(ctx, d, at, phaseOpen, capHit, s.tr != nil && i%2 == 1)
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// warm sends one request per proof system so the child's pools and tables
// are built before anything is timed.
func warm(ctx context.Context, clients []*serverclient.Client, provers []*prover) error {
	seen := map[jobs.Kind]bool{}
	for _, p := range provers {
		if seen[p.inst.Kind] {
			continue
		}
		seen[p.inst.Kind] = true
		res, err := clients[0].Prove(ctx, p.req, serverclient.Options{})
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", p.inst, err)
		}
		if !p.matches(res) {
			return fmt.Errorf("warm-up %s: served proof differs from the direct-path reference", p.inst)
		}
	}
	return nil
}

// libraryPass proves the first n contents in-process through Job.Prove
// (the library path, if prove is set), then decodes and checks one proof of
// each verifySweeps times: the last one served, or the reference for a
// content no request has returned yet. The pass is one block. The first
// pass, over every content, yields the references that every later proof of
// a content, direct or served, must equal. It returns the time the pass
// spent on the first libraryContents contents.
func (s *servedRun) libraryPass(ctx context.Context, n int, prove bool) (time.Duration, error) {
	b := startBlock()
	took := make([]time.Duration, n)
	proved := make([]float64, n)
	if prove {
		for i, p := range s.provers[:n] {
			res, d, err := p.prove(ctx)
			if err != nil {
				return 0, err
			}
			if p.ref == nil {
				p.setReference(res)
			} else if !p.matches(res) {
				return 0, fmt.Errorf("%s: two direct proofs of one content differ", p.inst)
			}
			proved[i], took[i] = d.Seconds(), d
		}
	}
	verified := make([][]float64, n)
	bytes := 0
	for sweep := 0; sweep < verifySweeps; sweep++ {
		bytes = 0
		for i, p := range s.provers[:n] {
			s.mu.Lock()
			raw := s.served[i]
			s.mu.Unlock()
			if raw == nil {
				raw, _ = p.ref.MarshalBinary() // Result.MarshalBinary cannot fail
			}
			d, err := p.verify(raw)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: proof rejected: %v\n", p.inst, err)
				s.out.correct = false
			}
			verified[i] = append(verified[i], d.Seconds())
			took[i] += d
			bytes += len(raw)
		}
	}
	if n == len(s.provers) {
		s.bytes = bytes
	}
	kept := b.kept()
	var head time.Duration
	for i := 0; i < n; i++ {
		if prove {
			s.proveS[i] = append(s.proveS[i], proved[i]*kept)
		}
		for _, v := range verified[i] {
			s.verifyS[i] = append(s.verifyS[i], v*kept)
		}
		if i < libraryContents {
			head += took[i]
		}
	}
	return head, nil
}

func runServed(ctx context.Context, cfg *config, w workload, pins map[string]pin) (*outcome, error) {
	out := &outcome{m: metrics{}, correct: true, valid: true}
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &servedRun{w: w, out: out, served: map[int][]byte{},
		draws:   newDrawer(rng, len(w.Instances), len(w.Tenants), w.ZipfS),
		proveS:  make([][]float64, len(w.Instances)),
		verifyS: make([][]float64, len(w.Instances))}
	deck := len(s.draws.cards)
	s.window = deck * ((minWindow + deck - 1) / deck)

	// Direct-path references, proved in this process before the server
	// exists. This is the checker's work, not the system's set-up.
	var err error
	if s.provers, err = compileInstances(w.Instances); err != nil {
		return nil, err
	}
	out.m.set("jobs.compile_s", compileSeconds(s.provers))
	passTook, err := s.libraryPass(ctx, len(s.provers), true)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		for _, p := range s.provers {
			if err := p.buildRaw(); err != nil {
				return nil, err
			}
		}
		ps, err := tracedPass(ctx, s.provers)
		if err != nil {
			return nil, err
		}
		passMetrics(out.m, []pass{ps})
		if err := singleWorkerPass(ctx, out.m, s.provers, ps.sumWall(0)); err != nil {
			return nil, err
		}
		s.tr = newTracer()
	}
	out.comparable = checkPins(s.provers, pins)
	out.provers = s.provers

	// Set-up as an operator pays it: start the server, wait until it
	// answers, warm it. Repeated; the last server is kept.
	var setups []float64
	for i := 0; i < servedSetupRepeats; i++ {
		if s.srv != nil {
			s.srv.stop()
		}
		b := startBlock()
		if s.srv, err = startServer(cfg, w, i); err != nil {
			return nil, err
		}
		s.clients, s.retry = newClients(s.srv.url, w.Tenants)
		if _, err = s.clients[0].Health(ctx); err == nil {
			err = warm(ctx, s.clients, s.provers)
		}
		if err != nil {
			s.srv.stop()
			return nil, err
		}
		setups = append(setups, b.seconds())
	}
	defer s.srv.stop()
	out.m.set("setup_s", lowerQuartile(setups))

	m0, err := s.clients[0].Metrics(ctx)
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		// The measuring time holds the closed loop in segments, each followed
		// by a library pass: as many as fit in a quarter of it.
		lib := min(libraryContents, len(s.provers))
		segments := min(max(int(window/4/passTook), minLoopSegments), maxLoopSegments)
		segment := max(window/time.Duration(2*segments), window/time.Duration(segments)-passTook)
		for i := 0; i < segments; i++ {
			s.closedLoop(ctx, segment)
			if _, err := s.libraryPass(ctx, lib, true); err != nil {
				return nil, err
			}
		}
		// Every content's served proof is checked once, whatever was timed.
		if _, err := s.libraryPass(ctx, len(s.provers), false); err != nil {
			return nil, err
		}
		return out, s.endToEnd(lib)
	}

	// A traced run has a short closed loop and then the open loop, whose
	// requests carry the spans.
	whole := startBlock()
	closedDur := time.Duration(float64(window) * closedShare)
	openDur := window - closedDur
	s.closedLoop(ctx, closedDur)
	openWall := s.openLoop(ctx, schedule(rng, w.Rate, openDur))
	out.m.set("host.steal_pct", 100*(1-whole.kept()))
	m1, err := s.clients[0].Metrics(ctx)
	if err != nil {
		return nil, err
	}
	peak, err := rssMB(s.srv.pid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	out.m.set("mem.peak_rss_mb", peak)
	out.m.set("mem.rss_p50_mb", median(s.rss))
	if _, err := s.libraryPass(ctx, len(s.provers), false); err != nil {
		return nil, err
	}
	if err := s.layers(max(openWall, openDur.Seconds()), m0, m1); err != nil {
		return nil, err
	}
	return out, s.tr.write(cfg.outPath("trace-" + w.Name + ".json"))
}

// count sets the run's attempted and failed ops from its requests.
func (s *servedRun) count() {
	for _, sm := range s.samples {
		s.out.attempted++
		if !sm.ok {
			s.out.failed++
		}
	}
}

// endToEnd derives the end-to-end metrics of an untraced run; the library
// path's are those of the first lib contents.
func (s *servedRun) endToEnd(lib int) error {
	s.count()
	if len(s.winS) == 0 {
		return fmt.Errorf("the closed loop did not complete one window of %d requests", s.window)
	}
	m := s.out.m
	m.set("throughput_per_s", float64(s.window)/lowerQuartile(s.winS))
	m.set("prove_p25_s", perContent(s.proveS[:lib], lowerQuartile))
	m.set("verify_p25_ms", 1e3*perContent(s.verifyS[:lib], lowerQuartile))
	m.set("proof_bytes", float64(s.bytes))
	return nil
}

// verifyOf is the median decode + check time of one proof of every
// content of kind, in ms.
func (s *servedRun) verifyOf(kind jobs.Kind) float64 {
	var samples [][]float64
	for i, p := range s.provers {
		if p.inst.Kind == kind {
			samples = append(samples, s.verifyS[i])
		}
	}
	return 1e3 * perContent(samples, median)
}

// layers turns the samples of a traced run and the server's counter
// deltas into the per-layer metrics.
func (s *servedRun) layers(openWall float64, m0, m1 *serverclient.MetricsSnapshot) error {
	s.count()
	m, out := s.out.m, s.out
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	var openOK int
	var lat, lagFree, posts, waits, fetches, queueWaits, proves, others, plainLat, tracedLat []float64
	capHits := 0
	for _, sm := range s.samples {
		if !sm.ok {
			continue
		}
		posts = append(posts, ms(sm.submit))
		if !s.w.Sync {
			waits = append(waits, ms(sm.wait))
			fetches = append(fetches, ms(sm.fetch))
			queueWaits = append(queueWaits, ms(sm.queueWait))
			proves = append(proves, ms(sm.prove))
			others = append(others, ms(sm.latency-sm.lag-sm.queueWait-sm.prove))
		}
		if sm.phase == phaseClosed {
			continue
		}
		openOK++
		lat = append(lat, ms(sm.latency))
		if sm.capHit {
			capHits++
		} else {
			lagFree = append(lagFree, ms(sm.lag))
		}
		if sm.traced {
			tracedLat = append(tracedLat, ms(sm.latency))
		} else {
			plainLat = append(plainLat, ms(sm.latency))
		}
	}
	if openOK == 0 {
		return errors.New("no open-loop request succeeded")
	}
	m.set("serve.latency_p50_ms", median(lat))
	m.set("serve.open_requests", float64(len(lat)))
	if supports(len(lat), 0.90) {
		m.set("serve.latency_p90_ms", quantile(lat, 0.90))
	}
	m.set("serve.goodput_per_s", float64(openOK)/openWall)
	m.set("plonk.verify_ms", s.verifyOf(jobs.KindPlonk))
	m.set("stark.verify_ms", s.verifyOf(jobs.KindStark))

	m.set("server.admit_ms", median(posts))
	m.set("serverclient.submit_ms", median(posts))
	m.set("serverclient.wait_ms", median(waits))
	m.set("serverclient.fetch_ms", median(fetches))
	m.set("serverclient.retries", float64(s.retry.Stats().Retries))
	if s.w.Sync {
		m.set("server.queue_wait_p50_ms", m1.QueueWaitP50MS)
		m.set("server.prove_p50_ms", m1.ProveLatencyP50MS)
	} else {
		m.set("server.queue_wait_p50_ms", median(queueWaits))
		m.set("server.queue_wait_p90_ms", quantile(queueWaits, 0.90))
		m.set("server.prove_p50_ms", median(proves))
		m.set("server.other_ms", median(others))
	}
	m.set("server.rejected_429", float64((m1.RejectedQueueFull-m0.RejectedQueueFull)+(m1.RejectedRateLimited-m0.RejectedRateLimited)))
	m.set("server.prove_invocations", float64(m1.ProveInvocations-m0.ProveInvocations))
	hits, misses, coalesced := m1.CacheHits-m0.CacheHits, m1.CacheMisses-m0.CacheMisses, m1.CacheCoalesced-m0.CacheCoalesced
	if lookups := hits + misses + coalesced; lookups > 0 {
		m.set("proofcache.hit_ratio", float64(hits)/float64(lookups))
	}
	m.set("proofcache.coalesced", float64(coalesced))
	m.set("proofcache.evicted", float64(m1.CacheEvicted-m0.CacheEvicted))
	if lookups := (m1.RegistryHits - m0.RegistryHits) + (m1.RegistryMisses - m0.RegistryMisses); lookups > 0 {
		m.set("proofcache.registry_hit_ratio", float64(m1.RegistryHits-m0.RegistryHits)/float64(lookups))
	}
	if m1.Journal != nil {
		m.set("journal.fsync_p50_ms", m1.Journal.FsyncP50MS)
	}

	lagP99 := quantile(lagFree, 0.99)
	m.set("loadgen.lag_p99_ms", lagP99)
	m.set("loadgen.cap_hits", float64(capHits))
	if lagP99 > ms(maxLagP99) {
		fmt.Fprintf(os.Stderr, "benchmark: load generator ran %.1f ms late at p99 (limit %v): run is not valid\n", lagP99, maxLagP99)
		out.valid = false
	}

	if s.tr != nil {
		if len(plainLat) > 0 && len(tracedLat) > 0 {
			m.set("trace.overhead_pct", 100*(median(tracedLat)/median(plainLat)-1))
		}
		m.set("serverclient.span_coverage", spanCoverage(s.tr.snapshot()))
	}
	return nil
}

// spanCoverage is the median, over traced requests, of the share of the
// request span its child spans cover.
func spanCoverage(spans []span) float64 {
	self := selfTimes(spans)
	var shares []float64
	for _, sp := range spans {
		if sp.Parent == noSpan && sp.End > sp.Start && strings.HasPrefix(sp.Name, "request:") {
			shares = append(shares, 1-float64(self[sp.ID])/float64(sp.End-sp.Start))
		}
	}
	return median(shares)
}
