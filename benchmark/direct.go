package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"unizk/internal/core"
	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/jobs"
	"unizk/internal/plonk"
	"unizk/internal/stark"
	"unizk/internal/trace"
	iworkloads "unizk/internal/workloads"
)

// prover is one compiled instance. base is the jobs.Compile product the
// untraced path proves through Job.Prove, exactly as cmd/prove and the
// server do. Job.Prove takes no Recorder, so the traced path builds the
// same circuit or AIR through internal/workloads (what Compile calls) and
// hands ProveContext a caller-supplied Recorder; both paths must yield the
// same proof bytes.
type prover struct {
	inst     instance
	req      *jobs.Request
	base     *jobs.Job
	compileS float64

	circuit *plonk.Circuit
	wit     *plonk.Witness
	pub     []field.Element
	air     *stark.Stark
	cols    [][]field.Element

	// ref is the direct-path reference for this content: every later
	// proof of it, direct or served, must hash to refSHA.
	ref    *jobs.Result
	refSHA [sha256.Size]byte
}

func compileInstance(in instance) (*prover, error) {
	p := &prover{inst: in, req: in.request()}
	start := time.Now()
	base, err := jobs.Compile(p.req)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", in, err)
	}
	p.base, p.compileS = base, time.Since(start).Seconds()
	return p, nil
}

func compileInstances(ins []instance) ([]*prover, error) {
	out := make([]*prover, len(ins))
	for i, in := range ins {
		p, err := compileInstance(in)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// compileSeconds is the summed jobs.Compile time of provers.
func compileSeconds(provers []*prover) float64 {
	t := 0.0
	for _, p := range provers {
		t += p.compileS
	}
	return t
}

// buildRaw builds the Recorder-capable twin of base.
func (p *prover) buildRaw() error {
	var err error
	switch p.inst.Kind {
	case jobs.KindPlonk:
		w, werr := iworkloads.ByName(p.inst.Workload)
		if werr != nil {
			return werr
		}
		p.circuit, p.wit, p.pub, err = w.Build(p.inst.LogRows, fri.PlonkyConfig())
	default:
		w, werr := iworkloads.StarkByName(p.inst.Workload)
		if werr != nil {
			return werr
		}
		p.air, p.cols, err = w.Build(p.inst.LogRows, fri.StarkyConfig())
	}
	if err != nil {
		return fmt.Errorf("build %s: %w", p.inst, err)
	}
	return nil
}

// prove derives a fresh job the way the server's registry path does and
// times Job.Prove alone.
func (p *prover) prove(ctx context.Context) (*jobs.Result, time.Duration, error) {
	j, err := p.base.ReuseFor(p.req)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err := j.Prove(ctx)
	return res, time.Since(start), err
}

// proveSample is what one traced prove yields beyond its result.
type proveSample struct {
	kind   jobs.Kind
	wall   time.Duration
	class  [trace.NumKinds]time.Duration
	nodes  []trace.Node
	tries  int
	allocs uint64
}

// busy renders the Recorder's per-kind totals for a span.
func (s *proveSample) busy() map[string]float64 {
	out := map[string]float64{}
	for k, d := range s.class {
		if d > 0 {
			out[trace.Kind(k).String()] = d.Seconds()
		}
	}
	return out
}

// proveTraced proves through ProveContext with a fresh Recorder.
func (p *prover) proveTraced(ctx context.Context) (*jobs.Result, *proveSample, error) {
	rec := trace.New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var raw []byte
	var err error
	res := &jobs.Result{Kind: p.inst.Kind}
	switch p.inst.Kind {
	case jobs.KindPlonk:
		var proof *plonk.Proof
		if proof, err = p.circuit.ProveContext(ctx, p.wit.Clone(), rec); err == nil {
			raw, err = proof.MarshalBinary()
		}
		res.Public = p.pub
	default:
		var proof *stark.Proof
		if proof, err = p.air.ProveContext(ctx, p.cols, rec); err == nil {
			raw, err = proof.MarshalBinary()
		}
	}
	wall := time.Since(start)
	if err != nil {
		return nil, nil, fmt.Errorf("prove %s: %w", p.inst, err)
	}
	runtime.ReadMemStats(&after)
	res.Proof = raw
	s := &proveSample{kind: p.inst.Kind, wall: wall, class: rec.CPUTime(), nodes: rec.Nodes(),
		allocs: after.Mallocs - before.Mallocs}
	for _, n := range s.nodes {
		// The grind is the only Hash-kind node the provers record.
		if n.Kind == trace.Hash {
			s.tries += n.Size
		}
	}
	return res, s, nil
}

// verify decodes a wire-encoded result and checks it against the
// compiled job, timing both.
func (p *prover) verify(raw []byte) (time.Duration, error) {
	start := time.Now()
	var res jobs.Result
	if err := res.UnmarshalBinary(raw); err != nil {
		return 0, err
	}
	err := p.base.Check(&res)
	return time.Since(start), err
}

func shaHex(sum [sha256.Size]byte) string { return hex.EncodeToString(sum[:]) }

// setReference records res as the content's direct-path reference.
func (p *prover) setReference(res *jobs.Result) {
	p.ref, p.refSHA = res, sha256.Sum256(res.Proof)
}

// matches reports whether res carries the reference proof bytes.
func (p *prover) matches(res *jobs.Result) bool {
	if res == nil || res.Kind != p.inst.Kind || len(res.Public) != len(p.ref.Public) {
		return false
	}
	for i, v := range res.Public {
		if v != p.ref.Public[i] {
			return false
		}
	}
	return sha256.Sum256(res.Proof) == p.refSHA
}

// pass is one traced proof of every instance of a workload.
type pass []*proveSample

func (ps pass) sumWall(kind jobs.Kind) float64 {
	t := 0.0
	for _, s := range ps {
		if kind == 0 || s.kind == kind {
			t += s.wall.Seconds()
		}
	}
	return t
}

func (ps pass) sumClass(k trace.Kind) float64 {
	t := 0.0
	for _, s := range ps {
		t += s.class[k].Seconds()
	}
	return t
}

// attributed is the share of kind's prove wall time the Recorder's
// classes (grind included) account for.
func (ps pass) attributed(kind jobs.Kind) float64 {
	wall, busy := 0.0, 0.0
	for _, s := range ps {
		if s.kind != kind {
			continue
		}
		wall += s.wall.Seconds()
		for _, d := range s.class {
			busy += d.Seconds()
		}
	}
	if wall == 0 {
		return 0
	}
	return busy / wall
}

func (ps pass) nodes() []trace.Node {
	var out []trace.Node
	for _, s := range ps {
		out = append(out, s.nodes...)
	}
	return out
}

// tracedPass proves every prover once with a Recorder, checking each
// proof against its reference (or installing it when there is none yet).
func tracedPass(ctx context.Context, provers []*prover) (pass, error) {
	out := make(pass, 0, len(provers))
	for _, p := range provers {
		res, s, err := p.proveTraced(ctx)
		if err != nil {
			return nil, err
		}
		if p.ref == nil {
			p.setReference(res)
		} else if !p.matches(res) {
			return nil, fmt.Errorf("%s: traced proof differs from the Job.Prove reference", p.inst)
		}
		out = append(out, s)
	}
	return out, nil
}

// passMetrics reports the kernel-class split of the given passes, each
// value a median over passes of the per-pass sum, and the hardware model's
// view of the first pass's kernel graph.
func passMetrics(m metrics, passes []pass) {
	if len(passes) == 0 {
		return
	}
	over := func(f func(pass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, ps := range passes {
			xs[i] = f(ps)
		}
		return median(xs)
	}
	class := func(k trace.Kind) float64 { return over(func(ps pass) float64 { return ps.sumClass(k) }) }
	first := passes[0]
	leaves, points, tries := 0, 0, 0
	for _, s := range first {
		tries += s.tries
		for _, n := range s.nodes {
			switch n.Kind {
			case trace.MerkleTree:
				leaves += n.Size
			case trace.NTT:
				points += n.Size * n.Batch
			}
		}
	}
	m.set("merkle.busy_s", class(trace.MerkleTree))
	m.set("merkle.leaves", float64(leaves))
	m.set("fri.grind_s", class(trace.Hash))
	m.set("fri.grind_tries", float64(tries))
	// The grind is the only Hash-kind node the seed tree's provers
	// record; transcript hashing is inside prove.unattributed_s until they
	// record it.
	m.set("poseidon.transcript_busy_s", 0)
	m.set("prove.unattributed_s", over(func(ps pass) float64 {
		busy := 0.0
		for k := trace.Kind(0); k < trace.NumKinds; k++ {
			busy += ps.sumClass(k)
		}
		return ps.sumWall(0) - busy
	}))
	m.set("ntt.busy_s", class(trace.NTT))
	m.set("ntt.points", float64(points))
	m.set("poly.vecop_s", class(trace.VecOp))
	m.set("poly.partial_products_s", class(trace.PartialProd))
	m.set("poly.transpose_s", class(trace.Transpose))
	m.set("plonk.prove_s", over(func(ps pass) float64 { return ps.sumWall(jobs.KindPlonk) }))
	m.set("stark.prove_s", over(func(ps pass) float64 { return ps.sumWall(jobs.KindStark) }))
	for kind, name := range map[jobs.Kind]string{jobs.KindPlonk: "plonk", jobs.KindStark: "stark"} {
		allocs, n := 0.0, 0
		for _, ps := range passes {
			for _, s := range ps {
				if s.kind == kind {
					allocs += float64(s.allocs)
					n++
				}
			}
		}
		if n > 0 {
			allocs /= float64(n)
		}
		m.set(name+".allocs_per_proof", allocs)
	}

	start := time.Now()
	sim := core.Simulate(first.nodes(), core.DefaultConfig())
	m.set("core.sim_host_ms", time.Since(start).Seconds()*1e3)
	m.set("core.sim_cycles_total", float64(sim.TotalCycles))
	m.set("core.sim_cycles_ntt", float64(sim.Cycles[core.ClassNTT]))
	m.set("core.sim_cycles_poly", float64(sim.Cycles[core.ClassPoly]))
	m.set("core.sim_cycles_hash", float64(sim.Cycles[core.ClassHash]))
	m.set("core.vsa_util_hash", sim.VSAUtilization(core.ClassHash))
	m.set("core.mem_util_ntt", sim.MemUtilization(core.ClassNTT))
	bytes := int64(0)
	for _, b := range sim.MemBytes {
		bytes += b
	}
	m.set("dram.sim_bytes", float64(bytes))
}
