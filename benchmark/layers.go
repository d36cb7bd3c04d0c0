package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/jobqueue"
	"unizk/internal/jobs"
	"unizk/internal/journal"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/plonk"
	"unizk/internal/poseidon"
	"unizk/internal/proofcache"
	"unizk/internal/serverclient"
	"unizk/internal/stark"
	"unizk/internal/tenant"
)

// The layer probes time direct calls into one layer's public functions
// on fixed inputs, after the workload has finished. They are the same on
// every workload; a traced run of any workload reports them.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// perOp runs fn (which performs ops operations) reps times and returns
// the median time per operation in the unit of scale (1e9 for ns, 1e6 for
// µs, 1e3 for ms).
func perOp(reps, ops int, scale float64, fn func()) float64 {
	fn() // warm tables, pools and caches
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		fn()
		xs[i] = time.Since(start).Seconds() * scale / float64(ops)
	}
	return median(xs)
}

func probeKernels(m metrics) {
	const n = 4096
	x, y := field.New(0x1234_5678_9abc_def0), field.New(0x0fed_cba9_8765_4321)
	m.set("field.mul_ns", perOp(5, 1<<18, 1e9, func() {
		acc := x
		for i := 0; i < 1<<18; i++ {
			acc = field.MulAdd(acc, y, x) // dependent chain
		}
		sink += acc.Uint64()
	}))
	inv := make([]field.Element, n)
	m.set("field.batch_inverse_4096_us", perOp(9, 1, 1e6, func() {
		for i := range inv {
			inv[i] = field.New(uint64(i)*0x9e3779b9 + 12345)
		}
		field.BatchInverse(inv)
		sink += inv[1].Uint64()
	}))

	var st poseidon.State
	for i := range st {
		st[i] = field.New(uint64(i + 1))
	}
	m.set("poseidon.permute_ns", perOp(5, 5000, 1e9, func() {
		s := st
		for i := 0; i < 5000; i++ {
			s = poseidon.Permute(s)
		}
		sink += s[0].Uint64()
	}))
	row := make([]field.Element, 32) // a width-32 STARK trace row: 4 permutations
	for i := range row {
		row[i] = field.New(uint64(3*i + 7))
	}
	m.set("poseidon.hash_no_pad_ns", perOp(5, 1500, 1e9, func() {
		for i := 0; i < 1500; i++ {
			row[0] = poseidon.HashNoPad(row)[0]
		}
		sink += row[0].Uint64()
	}))
	left, right := poseidon.HashNoPad(row[:4]), poseidon.HashNoPad(row[4:8])
	m.set("poseidon.two_to_one_ns", perOp(5, 5000, 1e9, func() {
		h := left
		for i := 0; i < 5000; i++ {
			h = poseidon.TwoToOne(h, right)
		}
		sink += h[0].Uint64()
	}))

	flat := make([]field.Element, 4*n)
	leaves := make([][]field.Element, n)
	for i := range leaves {
		leaves[i] = flat[4*i : 4*i+4]
		for j := range leaves[i] {
			leaves[i][j] = field.New(uint64(i*4 + j + 1))
		}
	}
	m.set("merkle.build_2p12_ms", perOp(5, 1, 1e3, func() { merkle.Build(leaves, 4).Release() }))

	const big = 1 << 15
	data := make([]field.Element, big)
	for i := range data {
		data[i] = field.New(uint64(i)*0x9e3779b9 + 12345)
	}
	m.set("ntt.forward_2p15_ms", perOp(9, 1, 1e3, func() { ntt.ForwardNN(data) }))
	m.set("ntt.coset_lde_2p15_ms", perOp(5, 1, 1e3, func() {
		sink += ntt.LDE(data, 3, field.MultiplicativeGenerator)[1].Uint64()
	}))
	layer := make([]field.Ext, big)
	for i := range layer {
		layer[i] = field.NewExt(uint64(i+1), uint64(2*i+3))
	}
	m.set("fri.fold_2p15_ms", perOp(9, 1, 1e3, func() {
		sink += uint64(len(fri.FoldLayer(layer, field.NewExt(77, 13), field.MultiplicativeGenerator)))
	}))
}

// probeJobs times the job and wire layers on one plonk and one stark
// content of the workload (its first of each).
func probeJobs(m metrics, provers []*prover) error {
	var reuse, enc, dec []float64
	seen := map[jobs.Kind]bool{}
	for _, p := range provers {
		if seen[p.inst.Kind] {
			continue
		}
		seen[p.inst.Kind] = true
		var err error
		reuse = append(reuse, perOp(9, 1, 1e6, func() {
			if _, e := p.base.ReuseFor(p.req); e != nil {
				err = e
			}
		}))
		var raw []byte
		enc = append(enc, perOp(9, 1, 1e6, func() { raw, _ = p.ref.MarshalBinary() }))
		dec = append(dec, perOp(9, 1, 1e6, func() {
			var res jobs.Result
			if e := res.UnmarshalBinary(raw); e != nil {
				err = e
				return
			}
			if p.inst.Kind == jobs.KindPlonk {
				err = new(plonk.Proof).UnmarshalBinary(res.Proof)
			} else {
				err = new(stark.Proof).UnmarshalBinary(res.Proof)
			}
		}))
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.inst, err)
		}
	}
	m.set("jobs.reuse_for_us", sum(reuse))
	m.set("wire.encode_proof_us", sum(enc))
	m.set("wire.decode_proof_us", sum(dec))
	return nil
}

// probeServing times the serving tier's in-memory layers: a cache hit
// through Begin, tenant admission, and a queue push/pop pair.
func probeServing(ctx context.Context, m metrics, p *prover) error {
	cache := proofcache.New(proofcache.Config{MaxEntries: 8})
	key := proofcache.KeyFor(p.req)
	cache.Put(key, p.ref)
	missed := false
	m.set("proofcache.begin_hit_us", perOp(5, 20000, 1e6, func() {
		for i := 0; i < 20000; i++ {
			if res, _, _ := cache.Begin(proofcache.KeyFor(p.req), "probe"); res == nil {
				missed = true
			}
		}
	}))
	if missed {
		return fmt.Errorf("probe: proofcache.Begin missed a stored key")
	}

	reg, err := tenant.NewRegistry(tenant.Config{Name: "gold", Key: "probe-key", Class: 1})
	if err != nil {
		return err
	}
	m.set("tenant.admit_ns", perOp(5, 50000, 1e9, func() {
		for i := 0; i < 50000; i++ {
			t, e := reg.Authenticate("probe-key")
			if e == nil {
				e = t.AllowSubmit()
			}
			if e == nil {
				e = t.AcquireSlot(0)
			}
			if e != nil {
				err = e
				return
			}
			t.Release()
		}
	}))
	if err != nil {
		return err
	}

	q := jobqueue.New[int](64)
	m.set("jobqueue.push_pop_ns", perOp(5, 50000, 1e9, func() {
		for i := 0; i < 50000; i++ {
			if e := q.Push(i, i&3); e != nil {
				err = e
				return
			}
			if _, e := q.Pop(ctx); e != nil {
				err = e
				return
			}
		}
	}))
	return err
}

// probeJournal times Append under each fsync policy and a 1000-record
// replay, on directories under dir. The record is an admitted job carrying
// req, the size the server journals per admission.
func probeJournal(m metrics, dir string, req []byte) error {
	rec := &journal.Record{Type: journal.TypeAdmitted, ID: "probe-0001", Req: req, TimeoutNS: int64(time.Minute)}
	open := func(name string, policy journal.Policy) (*journal.Journal, error) {
		path := filepath.Join(dir, "journal-probe-"+name)
		if err := os.RemoveAll(path); err != nil {
			return nil, err
		}
		j, err := journal.Open(path, journal.Options{Fsync: policy})
		if err != nil {
			return nil, err
		}
		return j, j.Replay(func(*journal.Record) {})
	}
	for _, c := range []struct {
		name   string
		policy journal.Policy
		ops    int
	}{{"off", journal.FsyncOff, 1000}, {"batch", journal.FsyncBatch, 100}, {"always", journal.FsyncAlways, 100}} {
		j, err := open(c.name, c.policy)
		if err != nil {
			return err
		}
		m.set("journal.append_"+c.name+"_us", perOp(3, c.ops, 1e6, func() {
			for i := 0; i < c.ops; i++ {
				if e := j.Append(rec); e != nil {
					err = e
				}
			}
		}))
		if c.policy == journal.FsyncBatch {
			if _, ok := m["journal.fsync_p50_ms"]; !ok {
				m.set("journal.fsync_p50_ms", j.Stats().FsyncP50.Seconds()*1e3)
			}
		}
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("probe journal %s: %w", c.name, err)
		}
	}

	j, err := open("replay", journal.FsyncOff)
	if err != nil {
		return err
	}
	for i := 0; i < 1000 && err == nil; i++ {
		err = j.Append(rec)
	}
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("probe journal replay: %w", err)
	}
	var xs []float64
	for i := 0; i < 3; i++ {
		j, err := journal.Open(filepath.Join(dir, "journal-probe-replay"), journal.Options{Fsync: journal.FsyncOff})
		if err != nil {
			return err
		}
		n := 0
		start := time.Now()
		err = j.Replay(func(*journal.Record) { n++ })
		xs = append(xs, time.Since(start).Seconds()*1e3)
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err == nil && n != 1000 {
			err = fmt.Errorf("replayed %d of 1000 records", n)
		}
		if err != nil {
			return fmt.Errorf("probe journal replay: %w", err)
		}
	}
	m.set("journal.replay_1k_ms", median(xs))
	return nil
}

// clusterHops is how many sequential jobs the cluster probe sends each
// way.
const clusterHops = 20

// probeCluster sends clusterHops sequential sync proves of probeInstance
// to a default server and as many through a one-node cmd/unizk-cluster in
// front of it: the difference of the medians is what the coordinator hop
// costs.
func probeCluster(ctx context.Context, cfg *config, m metrics) error {
	p, err := compileInstance(probeInstance)
	if err != nil {
		return err
	}
	res, _, err := p.prove(ctx)
	if err != nil {
		return err
	}
	p.setReference(res)

	srv, err := startChild(cfg.bin("unizk-server"), "server-probe", cfg.outDir)
	if err != nil {
		return err
	}
	defer srv.stop()
	coord, err := startChild(cfg.bin("unizk-cluster"), "cluster-probe", cfg.outDir, "-nodes", srv.url, "-probe", "50ms")
	if err != nil {
		return err
	}
	defer coord.stop()

	timeVia := func(url string) (float64, error) {
		clients, _ := newClients(url, nil)
		// The coordinator answers 503 until its first probe has seen the
		// node; the warm-up request retries through that.
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, err := clients[0].Prove(ctx, p.req, serverclient.Options{})
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("cluster probe warm-up via %s: %w", url, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
		xs := make([]float64, clusterHops)
		for i := range xs {
			start := time.Now()
			res, err := clients[0].Prove(ctx, p.req, serverclient.Options{})
			if err != nil {
				return 0, err
			}
			xs[i] = time.Since(start).Seconds() * 1e3
			if !p.matches(res) {
				return 0, fmt.Errorf("cluster probe: proof via %s differs from the direct-path reference", url)
			}
		}
		return median(xs), nil
	}
	direct, err := timeVia(srv.url)
	if err != nil {
		return err
	}
	hopped, err := timeVia(coord.url)
	if err != nil {
		return err
	}
	m.set("cluster.hop_overhead_ms", hopped-direct)

	resp, err := http.Get(coord.url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var cm struct {
		Redispatches int64 `json:"redispatches"`
	}
	if err := json.Unmarshal(body, &cm); err != nil {
		return fmt.Errorf("cluster metrics: %w", err)
	}
	m.set("cluster.redispatches", float64(cm.Redispatches))
	return nil
}

// runProbes runs every layer probe into m.
func runProbes(ctx context.Context, cfg *config, m metrics, provers []*prover) error {
	probeKernels(m)
	if err := probeJobs(m, provers); err != nil {
		return err
	}
	if err := probeServing(ctx, m, provers[0]); err != nil {
		return err
	}
	req, err := provers[0].req.MarshalBinary()
	if err != nil {
		return err
	}
	if err := probeJournal(m, cfg.outDir, req); err != nil {
		return err
	}
	return probeCluster(ctx, cfg, m)
}
