package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef declares one metric the benchmark prints. The table below is
// the single list of names: BENCHMARK.json must name exactly these (a test
// checks it), and a run that fails to set one of them is an error.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Exact marks values that repeat exactly on one tree (counts and
	// simulated statistics): -agree requires them identical, and a change
	// in one is a change of model or transcript, never a speed-up.
	Exact bool
}

// endToEnd metrics are printed by untraced runs, for every workload;
// README.md has the full table.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "prove_p25_s", Unit: "s", Better: "lower"},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher"},
	{Name: "verify_p25_ms", Unit: "ms", Better: "lower"},
	{Name: "proof_bytes", Unit: "B", Better: "lower", Exact: true},
}

// perLayer metrics are printed by traced runs, for every workload; one
// that does not exist on a workload (a cache ratio with no cache, a load
// generator figure with no server) reads 0 there.
var perLayer = []metricDef{
	// Demoted end-to-end metrics: only served workloads have an open loop,
	// the pipeline wants every end-to-end metric on every workload, and
	// open-loop latency does not repeat within a tenth on 2 cores.
	{Name: "serve.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.goodput_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.open_requests", Unit: "count", Better: "higher"},
	{Name: "prove.rounds", Unit: "count", Better: "higher"},
	// Demoted too: the resident set depends on where the collector's cycles
	// fall. Its high-water mark spread over a quarter of its median in the
	// pipeline's runs, and its median over rounds or windows spreads as wide
	// as the high-water mark does here (7% on prove-merkle).
	{Name: "mem.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "mem.rss_p50_mb", Unit: "MB", Better: "lower"},

	{Name: "merkle.busy_s", Unit: "s", Better: "lower"},
	{Name: "merkle.leaves", Unit: "count", Better: "lower", Exact: true},
	{Name: "merkle.build_2p12_ms", Unit: "ms", Better: "lower"},
	{Name: "poseidon.permute_ns", Unit: "ns", Better: "lower"},
	{Name: "poseidon.hash_no_pad_ns", Unit: "ns", Better: "lower"},
	{Name: "poseidon.two_to_one_ns", Unit: "ns", Better: "lower"},
	{Name: "poseidon.transcript_busy_s", Unit: "s", Better: "lower"},
	{Name: "fri.grind_s", Unit: "s", Better: "lower"},
	{Name: "fri.grind_tries", Unit: "count", Better: "lower", Exact: true},
	{Name: "fri.fold_2p15_ms", Unit: "ms", Better: "lower"},
	{Name: "ntt.busy_s", Unit: "s", Better: "lower"},
	{Name: "ntt.points", Unit: "count", Better: "lower", Exact: true},
	{Name: "ntt.forward_2p15_ms", Unit: "ms", Better: "lower"},
	{Name: "ntt.coset_lde_2p15_ms", Unit: "ms", Better: "lower"},
	{Name: "ntt.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "poly.vecop_s", Unit: "s", Better: "lower"},
	{Name: "poly.partial_products_s", Unit: "s", Better: "lower"},
	{Name: "poly.transpose_s", Unit: "s", Better: "lower"},
	{Name: "field.mul_ns", Unit: "ns", Better: "lower"},
	{Name: "field.batch_inverse_4096_us", Unit: "us", Better: "lower"},
	{Name: "plonk.prove_s", Unit: "s", Better: "lower"},
	{Name: "stark.prove_s", Unit: "s", Better: "lower"},
	{Name: "plonk.allocs_per_proof", Unit: "count", Better: "lower"},
	{Name: "stark.allocs_per_proof", Unit: "count", Better: "lower"},
	{Name: "plonk.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "stark.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "plonk.attributed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "stark.attributed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "prove.unattributed_s", Unit: "s", Better: "lower"},
	{Name: "parallel.speedup", Unit: "ratio", Better: "higher"},
	{Name: "parallel.efficiency", Unit: "ratio", Better: "higher"},
	{Name: "jobs.compile_s", Unit: "s", Better: "lower"},
	{Name: "jobs.reuse_for_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_proof_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_proof_us", Unit: "us", Better: "lower"},

	{Name: "server.admit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.prove_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.other_ms", Unit: "ms", Better: "lower"},
	{Name: "server.rejected_429", Unit: "count", Better: "lower"},
	{Name: "server.prove_invocations", Unit: "count", Better: "lower"},
	{Name: "serverclient.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "serverclient.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serverclient.fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "serverclient.retries", Unit: "count", Better: "lower"},
	{Name: "serverclient.span_coverage", Unit: "ratio", Better: "higher"},
	{Name: "proofcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "proofcache.coalesced", Unit: "count", Better: "higher"},
	{Name: "proofcache.evicted", Unit: "count", Better: "lower"},
	{Name: "proofcache.begin_hit_us", Unit: "us", Better: "lower"},
	{Name: "proofcache.registry_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "journal.append_off_us", Unit: "us", Better: "lower"},
	{Name: "journal.append_batch_us", Unit: "us", Better: "lower"},
	{Name: "journal.append_always_us", Unit: "us", Better: "lower"},
	{Name: "journal.fsync_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.replay_1k_ms", Unit: "ms", Better: "lower"},
	{Name: "tenant.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "jobqueue.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.hop_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.redispatches", Unit: "count", Better: "lower"},

	// Simulated, not host, time: these repeat exactly and have no better
	// direction; "lower" only satisfies the schema.
	{Name: "core.sim_cycles_total", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "core.sim_cycles_ntt", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "core.sim_cycles_poly", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "core.sim_cycles_hash", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "core.vsa_util_hash", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "core.mem_util_ntt", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "core.sim_host_ms", Unit: "ms", Better: "lower"},
	{Name: "dram.sim_bytes", Unit: "B", Better: "lower", Exact: true},

	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.cap_hits", Unit: "count", Better: "lower"},
	{Name: "loadgen.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "host.steal_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "catalogue.comparable", Unit: "bool", Better: "higher", Exact: true},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects values by name during a run.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// render keeps exactly the metrics in defs, erring on a missing one unless
// fill is set, in which case it reads 0 (a per-layer metric the workload
// does not have).
func (m metrics) render(defs []metricDef, fill bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok && !fill {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result with the run's identity, as stored in the output
// directory and in result sets for -agree. Comparable is false when a
// direct-path proof differed from its pin, Valid is false when the load
// generator ran later than maxLagP99.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Comparable bool   `json:"comparable"`
	Valid      bool   `json:"valid"`
	result
}

// appendRecord appends rec as one line to the set at path.
func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
