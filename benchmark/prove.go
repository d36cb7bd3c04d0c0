package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
)

// setupRepeats is how many times a direct run sets up, servedSetupRepeats
// how many times a served run does (a server starts in a tenth of the time
// circuits compile in); setup_s is the lower quartile.
const (
	setupRepeats       = 3
	servedSetupRepeats = 5
)

// outcome is what a workload run hands back to main.
type outcome struct {
	m          metrics
	attempted  int
	failed     int
	correct    bool
	comparable bool
	valid      bool
	provers    []*prover // for the layer probes
}

// checkPins compares each prover's reference with the catalogue pin.
// Equal proof bytes imply an equal grind witness, so the SHA alone decides.
func checkPins(provers []*prover, pins map[string]pin) bool {
	ok := true
	for _, p := range provers {
		want, have := pins[p.inst.String()], shaHex(p.refSHA)
		if want.SHA256 != have {
			fmt.Fprintf(os.Stderr, "benchmark: %s proof %s differs from pin %s: run is not comparable\n",
				p.inst, have[:12], want.SHA256)
			ok = false
		}
	}
	return ok
}

// round is one closed-loop op of a direct workload: every instance
// proved through Job.Prove, then every proof wire-encoded, decoded and
// checked. A round is one block (host.go): its times have the host's share
// taken out.
type round struct {
	seconds float64   // the whole round
	prove   []float64 // Job.Prove seconds per instance, in catalogue order
	verify  []float64 // decode + Job.Check seconds per instance
	rssMB   float64   // this process's resident set when the round ended
	samples pass      // traced rounds only, in catalogue order
}

func (r *round) proveS() float64 { return sum(r.prove) }

// verifyOf is the round's verify seconds spent on proofs of kind.
func (r *round) verifyOf(provers []*prover, kind jobs.Kind) float64 {
	t := 0.0
	for i, p := range provers {
		if p.inst.Kind == kind {
			t += r.verify[i]
		}
	}
	return t
}

// perContent sums, over the contents of a workload, stat of each content's
// own samples: samples[i] are content i's. Taking the statistic per content
// and not per pass lets one disturbed proof spoil one content's sample, not
// the whole pass's.
func perContent(samples [][]float64, stat func([]float64) float64) float64 {
	t := 0.0
	for _, xs := range samples {
		t += stat(xs)
	}
	return t
}

// directRun holds the state of one direct workload run.
type directRun struct {
	provers []*prover
	rng     *rand.Rand
	tr      *tracer
	out     *outcome
	bytes   int
	nextReq int
}

// runRound proves and verifies every instance once, in seeded order.
func (d *directRun) runRound(ctx context.Context, traced bool) (*round, error) {
	order := d.rng.Perm(len(d.provers))
	r := &round{prove: make([]float64, len(d.provers)), verify: make([]float64, len(d.provers))}
	if traced {
		r.samples = make(pass, len(d.provers))
	}
	req := d.nextReq
	d.nextReq++
	var tr *tracer
	if traced {
		tr = d.tr
	}
	b := startBlock()
	root := tr.start(noSpan, req, "round", time.Time{})
	raws := make([][]byte, len(d.provers))
	for _, i := range order {
		p := d.provers[i]
		d.out.attempted++
		var res *jobs.Result
		var err error
		if traced {
			id := tr.start(root, req, "prove:"+p.inst.String(), time.Time{})
			var s *proveSample
			if res, s, err = p.proveTraced(ctx); err == nil {
				r.samples[i] = s
				r.prove[i] = s.wall.Seconds()
				tr.end(id, s.busy())
			}
		} else {
			var took time.Duration
			res, took, err = p.prove(ctx)
			r.prove[i] = took.Seconds()
		}
		if err != nil {
			return nil, err
		}
		if !p.matches(res) {
			fmt.Fprintf(os.Stderr, "benchmark: %s: proof differs from the run's reference\n", p.inst)
			d.out.failed++
			d.out.correct = false
		}
		id := tr.start(root, req, "wire.encode", time.Time{})
		raws[i], err = res.MarshalBinary()
		tr.end(id, nil)
		if err != nil {
			return nil, err
		}
	}
	d.bytes = 0
	for i, p := range d.provers {
		id := tr.start(root, req, "verify:"+p.inst.String(), time.Time{})
		took, err := p.verify(raws[i])
		tr.end(id, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: proof rejected: %v\n", p.inst, err)
			d.out.failed++
			d.out.correct = false
		}
		r.verify[i] = took.Seconds()
		d.bytes += len(raws[i])
	}
	tr.end(root, nil)

	kept := b.kept()
	r.seconds = time.Since(b.start).Seconds() * kept
	for i := range d.provers {
		r.prove[i] *= kept
		r.verify[i] *= kept
	}
	var err error
	r.rssMB, err = rssMB("self", "VmRSS")
	return r, err
}

// setupDirect compiles every instance and proves a warm-up round, which
// also yields each content's reference proof. It returns the provers and
// how long the set-up took, the host's share taken out.
func setupDirect(ctx context.Context, ins []instance) ([]*prover, float64, error) {
	b := startBlock()
	provers, err := compileInstances(ins)
	if err != nil {
		return nil, 0, err
	}
	for _, p := range provers {
		res, _, err := p.prove(ctx)
		if err != nil {
			return nil, 0, fmt.Errorf("warm-up %s: %w", p.inst, err)
		}
		p.setReference(res)
	}
	return provers, b.seconds(), nil
}

func runDirect(ctx context.Context, cfg *config, w workload, pins map[string]pin) (*outcome, error) {
	out := &outcome{m: metrics{}, correct: true, valid: true}
	d := &directRun{rng: rand.New(rand.NewSource(cfg.seed)), out: out}

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		provers, took, err := setupDirect(ctx, w.Instances)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
		for j, p := range provers {
			if d.provers != nil && d.provers[j].refSHA != p.refSHA {
				return nil, fmt.Errorf("%s: two direct proofs of one content differ", p.inst)
			}
		}
		d.provers = provers
	}
	out.m.set("setup_s", lowerQuartile(setups))
	out.m.set("jobs.compile_s", compileSeconds(d.provers))
	out.comparable = checkPins(d.provers, pins)
	out.provers = d.provers

	// Rounds run until the measuring time is up. In a traced run they
	// alternate between the untraced and the traced path, so both see the
	// same machine and their medians differ by the tracing overhead.
	if cfg.trace {
		for _, p := range d.provers {
			if err := p.buildRaw(); err != nil {
				return nil, err
			}
		}
		d.tr = newTracer()
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	before := ntt.GetCacheStats()
	var plain, traced []*round
	whole := startBlock()
	for i := 0; time.Since(whole.start) < window; i++ {
		withTrace := cfg.trace && i%2 == 1
		r, err := d.runRound(ctx, withTrace)
		if err != nil {
			return nil, err
		}
		if withTrace {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if !cfg.trace {
		d.endToEnd(plain)
		return out, nil
	}
	out.m.set("host.steal_pct", 100*(1-whole.kept()))
	peak, err := rssMB("self", "VmHWM")
	if err != nil {
		return nil, err
	}
	out.m.set("mem.peak_rss_mb", peak)
	if len(traced) == 0 {
		return nil, fmt.Errorf("%v is too short for a traced round", window)
	}
	after := ntt.GetCacheStats()
	if lookups := (after.Hits - before.Hits) + (after.Misses - before.Misses); lookups > 0 {
		out.m.set("ntt.cache_hit_ratio", float64(after.Hits-before.Hits)/float64(lookups))
	}

	passes := make([]pass, len(traced))
	for i, r := range traced {
		passes[i] = r.samples
	}
	passMetrics(out.m, passes)
	out.m.set("trace.overhead_pct", 100*(medianOf(traced, (*round).proveS)/medianOf(plain, (*round).proveS)-1))
	all := append(plain, traced...)
	out.m.set("prove.rounds", float64(len(all)))
	out.m.set("mem.rss_p50_mb", medianOf(all, func(r *round) float64 { return r.rssMB }))
	out.m.set("plonk.verify_ms", 1e3*medianOf(all, func(r *round) float64 { return r.verifyOf(d.provers, jobs.KindPlonk) }))
	out.m.set("stark.verify_ms", 1e3*medianOf(all, func(r *round) float64 { return r.verifyOf(d.provers, jobs.KindStark) }))
	if err := singleWorkerPass(ctx, out.m, d.provers, out.m["plonk.prove_s"]+out.m["stark.prove_s"]); err != nil {
		return nil, err
	}
	return out, d.tr.write(cfg.outPath("trace-" + w.Name + ".json"))
}

func medianOf(rounds []*round, f func(*round) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd derives the end-to-end metrics from untraced rounds. A timing
// is the lower quartile over rounds, taken per instance and summed.
func (d *directRun) endToEnd(rounds []*round) {
	n := len(d.provers)
	prove, verify := make([][]float64, n), make([][]float64, n)
	var seconds []float64
	for _, r := range rounds {
		for i := 0; i < n; i++ {
			prove[i] = append(prove[i], r.prove[i])
			verify[i] = append(verify[i], r.verify[i])
		}
		seconds = append(seconds, r.seconds)
	}
	m := d.out.m
	m.set("prove_p25_s", perContent(prove, lowerQuartile))
	m.set("verify_p25_ms", 1e3*perContent(verify, lowerQuartile))
	m.set("throughput_per_s", float64(n)/lowerQuartile(seconds))
	m.set("proof_bytes", float64(d.bytes))
}

// singleWorkerPass proves every instance once with a one-worker pool and
// a Recorder: parallel.speedup is that pass's wall time over poolWall (the
// same pass on the default pool), and the attributed ratios say how much
// of single-worker prove time the Recorder's classes explain.
func singleWorkerPass(ctx context.Context, m metrics, provers []*prover, poolWall float64) error {
	workers := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(workers)
	ps, err := tracedPass(ctx, provers)
	if err != nil {
		return err
	}
	m.set("plonk.attributed_ratio", ps.attributed(jobs.KindPlonk))
	m.set("stark.attributed_ratio", ps.attributed(jobs.KindStark))
	if poolWall > 0 {
		speedup := ps.sumWall(0) / poolWall
		m.set("parallel.speedup", speedup)
		m.set("parallel.efficiency", speedup/float64(workers))
	}
	return nil
}
