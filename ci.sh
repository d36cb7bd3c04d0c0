#!/bin/sh
# ci.sh — the whole CI gate as an ordered list of named stages. Each
# stage_<name> function below is one stage, with the one copy of its
# rationale; .github/workflows/ci.yml runs each as its own step.
#
#	./ci.sh               run every stage, in file order
#	./ci.sh <stage>...    run only the named stages (stage_a_b is a-b)
#	./ci.sh --list        print the stage names
#
# The race slices and soaks repeat tests that race-all runs again: they
# run first, each on its own, so a regression fails under its own stage
# name. See README.md "Robustness and CI".
set -eu

stage_vet() { go vet ./...; }
stage_build() { go build ./...; }

# unizklint (cmd/unizklint, analyzers in internal/lint) mechanically
# enforces the prover/verifier safety invariants of DESIGN.md §8:
# canonical field construction, checked wire decodes, classified verifier
# errors, cancellable loops, and Fiat–Shamir determinism. The tree must be
# clean before the test suite runs; suppressions require an
# //unizklint:allow <analyzer> <reason> directive. ci.yml registers a
# problem matcher that turns each file:line:col: finding into an inline
# annotation on the PR diff.
stage_unizklint() { go run ./cmd/unizklint ./...; }

# Third-party static analysis is a mandatory gate (versions are pinned
# in _tools/tools.go and installed by the ci.yml workflow). Offline or
# minimal environments that cannot `go install` the tools must opt out
# explicitly with UNIZK_CI_OFFLINE=1 — a missing tool without the opt-out
# fails the gate instead of silently skipping.
stage_analyzers() {
	if [ "${UNIZK_CI_OFFLINE:-}" = "1" ]; then
		echo "UNIZK_CI_OFFLINE=1: skipping staticcheck and govulncheck"
		return
	fi
	command -v staticcheck >/dev/null 2>&1 || {
		echo "staticcheck is required (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)," >&2
		echo "or set UNIZK_CI_OFFLINE=1 to skip third-party analyzers offline" >&2
		exit 1
	}
	command -v govulncheck >/dev/null 2>&1 || {
		echo "govulncheck is required (go install golang.org/x/vuln/cmd/govulncheck@v1.1.4)," >&2
		echo "or set UNIZK_CI_OFFLINE=1 to skip third-party analyzers offline" >&2
		exit 1
	}
	staticcheck ./...
	govulncheck ./...
}

# Hot-path allocation gate: AllocsPerRun pins for the kernels annotated
# //unizklint:hotpath (zero steady-state allocations) and for whole
# proofs (measured budgets with headroom). Deliberately without -race:
# the race runtime allocates, which would poison the counts (the tests
# skip themselves under -race, so race-all stays green).
stage_allocgate() { go test -timeout 5m ./internal/allocgate; }

# Job-lifecycle core: internal/jobcore driven by a scripted fake
# executor (the admission rollback matrix, status table, idempotency,
# SSE and the polling fallback, journal recovery), internal/serverclient
# that consumes both, the proof cache's admission and eviction under
# concurrent Begin/Complete/Abort/Put, the bounded store that decides
# which entries stay (against its brute-force model), and the journal's
# known-result set shared by concurrent appenders. Both serving tiers run
# on this one core, so it runs before any soak. The idempotency tests
# repeat 200 times: an order race between a job becoming visible and its
# retirement fails once in hundreds of runs.
stage_race_jobcore() {
	go test -race ./internal/jobcore ./internal/serverclient ./internal/proofcache ./internal/store ./internal/journal
	go test -race -count=200 -run '^TestIdempotency' ./internal/jobcore
}

# Chaos soak (fixed seed, small circuits): concurrent clients drive real
# proof jobs through injected connection resets, truncated responses,
# and 503 blips, retrying under idempotency keys. The gate asserts
# bit-identical proofs, exactly one prove per unique job, every error
# classified retryable, and zero goroutine leaks.
stage_chaos_soak() { go test -race -timeout 10m -run '^TestChaosSoak$' ./internal/faultinject/netchaos; }

# Cluster chaos soak (fixed seed, 3 nodes): the fault-tolerant
# coordinator drives concurrent retrying clients through per-node
# fault-injecting listeners while node 0 is hard-killed mid-load and
# restarted on the same address. The gate asserts bit-identical proofs,
# duplicate work accounted across node epochs (no node process proves a
# job twice; every surplus invocation is paid for by a recorded
# re-dispatch), the restart detected as a /healthz epoch change, and
# zero goroutine leaks.
stage_cluster_soak() { go test -race -timeout 10m -run '^TestClusterChaosSoak$' ./internal/cluster; }

# Busy-node re-route: a node that refuses a submit before admission
# (429 queue_full, 503 draining, each with Retry-After: 1) must cost a
# cluster job one submit and under 500 ms, because node clients make one
# exchange per call and dispatch re-routes at once. A node client that
# starts retrying on its own fails here.
stage_busy_node() { go test -race -run '^TestBusyNodeReroutesAtOnce$' ./internal/cluster; }

# Cache soak (fixed seed, both topologies): distinct-tenant clients
# hammer the same request contents — no idempotency keys — through a
# chaos-wrapped single server and a 3-node cluster with the
# content-addressed proof cache on. The gate asserts exactly one prove
# per unique content (cache hits and coalesced flights absorb the
# rest), bit-identical proofs, 429 + Retry-After for a starved tenant
# with other tenants unaffected, honest cache/tenant counters, and zero
# goroutine leaks.
stage_cache_soak() {
	go test -race -timeout 10m -run '^TestCacheSoak$' ./internal/faultinject/netchaos
	go test -race -timeout 10m -run '^TestClusterCacheSoak$' ./internal/cluster
}

# Crash-recovery soak (fixed seed): a *journaled* coordinator subprocess
# is SIGKILLed mid-load and restarted on the same journal directory and
# address — twice, the second time onto a journal with a torn tail. The
# gate asserts zero acknowledged jobs lost, proofs bit-identical across
# the crash, the exactly-once sandwich (unique proves ≤ invocations ≤
# unique + recorded re-dispatches), the persisted epoch visible on
# /healthz, torn tails truncated and counted instead of failing startup,
# and zero goroutine leaks.
stage_crash_recovery_soak() { go test -race -timeout 15m -run '^TestCrashRecoverySoak$' ./internal/cluster; }

# Kernel differential suite: the optimized field and NTT kernels against
# their retained naive reference oracles (internal/field/goldilocks_ref_test.go's big.Int
# arithmetic, internal/ntt/ntt_ref_test.go's O(n^2) DFT) over fuzzed inputs
# and edge vectors, serial and parallel, and the field slice layer's
# FuzzVec seeds against the scalar ops.
stage_race_kernels() { go test -race -run 'TestRef|TestCache|Vec' ./internal/field ./internal/ntt; }

# Parallel determinism: the worker pool's own property tests plus the
# serial-vs-parallel differential layer of the kernels that use it.
stage_race_parallel() { go test -race -run 'Parallel|Serial|TestFor' ./internal/parallel ./internal/ntt ./internal/merkle ./internal/fri ./internal/plonk ./internal/stark; }

# Hash-path differential suite: the lane-based Poseidon permutation and
# the batched eight-wide one against PermuteNaive, the eight-wide
# kernel's MDS layer alone against the dense matrix, and the block-parallel
# proof-of-work grind against the serial Clone loop it replaced
# (witness, tries and the transcript after it) across worker counts,
# serial mode, sub-block edges and batch positions, plus the FRI grind
# node's serial-equivalent size.
stage_race_hash() { go test -race -run 'Grind|Permute|MDS' ./internal/poseidon ./internal/fri; }

# Verifier differential suite: the FRI verifier's parallel query loop
# against its serial reference on tampered plonk and stark proofs at one,
# two and seven workers and in serial mode (faults on both sides of a
# chunk edge, twice in one chunk, in the last partial chunk), a panic in
# a query chunk classified as CatchPanic classifies it, batched Merkle-path
# verification against Verify, and the plonk and stark verifiers' own
# rejection tests, and the PIOP driver's prove/replay round trip and shape
# checks.
stage_race_verify() { go test -race -run 'Verify' ./internal/fri ./internal/merkle ./internal/plonk ./internal/stark ./internal/piop; }

# Mutation harness: every mutant of a pristine plonk and stark proof
# (bit flips, truncations, non-canonical elements, length prefixes,
# structured edits) must be rejected with its prooferr class, never
# accepted and never a panic; the tamper taxonomy pins one class per
# proof component, and the pristine proofs must be identical serial and
# parallel.
stage_mutation() { go test -race -run 'FaultInjection|TamperTaxonomy|PristineProofs' ./internal/faultinject; }

# Portable hash and NTT path: on an AVX-512 host the batched and
# single-state permutations and the field slice layer (NTT butterflies
# and scalings, the constraint program, the quotient and FRI's reduce)
# run in assembly, so this stage builds with the standard purego tag to
# keep the portable loops (the path on every other host) under the same
# differential tests — the slice kernels against the scalar ops, EvalAll
# against Horner's rule, the Go rounds and the batch against
# PermuteNaive, batched Merkle trees against the scalar
# reference tree, and the batched grind against the serial loop,
# batched Merkle-path verification against Verify, the batched FRI
# verifier against its serial reference, every NTT Spec against the
# O(n^2) DFT, the plonk quotient against its re-extending reference,
# the FRI coefficient-form combine against the pointwise one, the
# compiled constraint program against the expression trees (both coset
# orders, challenges, all four divisor classes), the tiled stark
# quotient against its per-point reference, plonk's compiled ζ check
# against the hand-written one, and the dense plonk witness against the
# map-backed one and its clones, and the PIOP driver's round trip — under
# the race detector.
stage_purego() { go test -tags purego -race -run 'Permute|Grind|Batch|Build|Verify|Ref|Quotient|Butterflies|Scale|Combine|Program|Constraint|Witness|Vec|EvalAll' ./internal/field ./internal/poseidon ./internal/merkle ./internal/fri ./internal/ntt ./internal/constraint ./internal/plonk ./internal/stark ./internal/piop; }

# Kernel trajectory regression check: with UNIZK_BENCH_ENFORCE=1 (ci.yml
# sets it on this step) this re-measures the tracked kernel registry
# (internal/bench/trajectory) and fails on a >10% regression against the
# last committed BENCH_kernels.json entry for this host class — its
# (GOARCH, NumCPU, SIMD backend). Without it, or on a host class with no
# committed baseline (hosted runners vary), the test self-skips, because
# wall-clock numbers from unknown machines are noise, not a gate. Record
# a new trajectory entry with `go run ./cmd/unizk-bench -kernels`.
stage_trajectory() { go test -v -timeout 20m -run '^TestTrajectoryRegression$' ./internal/bench/trajectory; }

# Bench registries: run one iteration of every tracked kernel and every
# paper report (Table 1 … Ablation), so a benchmark body that no longer
# runs — or a report the registry stopped covering — fails here instead
# of compiling silently under the test run.
stage_bench_registries() { go test -run '^$' -bench 'Kernels|Reports' -benchtime 1x .; }

# The race detector is a hard gate: every parallel kernel (NTT butterfly
# layers, Merkle levels, FRI fold/queries, quotient evaluation) runs under
# it via the differential serial-vs-parallel tests, which sweep worker
# counts {1, 2, 7, NumCPU}.
stage_race_all() { go test -race ./...; }

# Fuzz stages: coverage-guided runs for a fixed budget. -run='^$' skips
# unit tests so the whole budget goes to fuzzing.
#
# Proof decode+verify: arbitrary bytes through each protocol's proof
# decoder and verifier; malformed input must be an error, never a panic,
# and only the pristine proof may verify.
stage_fuzz_plonk() { go test -run='^$' -fuzz='^FuzzPlonkUnmarshalVerify$' -fuzztime=10s ./internal/plonk; }
stage_fuzz_stark() { go test -run='^$' -fuzz='^FuzzStarkUnmarshalVerify$' -fuzztime=10s ./internal/stark; }
# The arena decoder behind both protocols' UnmarshalBinary against the
# element-at-a-time reference: same bytes accepted and rejected, same
# errors, equal proofs.
stage_fuzz_decode() { go test -run='^$' -fuzz='^FuzzDecodeMatchesReference$' -fuzztime=10s ./internal/wire; }
# Any (n, grain, workers) visits every index of parallel.For exactly once.
stage_fuzz_for() { go test -run='^$' -fuzz='^FuzzForCoverage$' -fuzztime=10s ./internal/parallel; }
# The Poseidon permutation (the single-state kernel on AVX-512 hosts) and
# the Go rounds against PermuteNaive.
stage_fuzz_permute() { go test -run='^$' -fuzz='^FuzzPermute$' -fuzztime=20s ./internal/poseidon; }
# Raw lanes, non-canonical values included, through the batched
# permutation against PermuteNaive.
stage_fuzz_permute_x8() { go test -run='^$' -fuzz='^FuzzPermuteX8$' -fuzztime=20s ./internal/poseidon; }
# Random canonical spans at ragged bases through field.ButterflyVec
# against the scalar loop.
stage_fuzz_butterflies() { go test -run='^$' -fuzz='^FuzzDIFButterfliesX8$' -fuzztime=20s ./internal/ntt; }
# Commit path: the NTT's last three layers on eight lanes (field.DIF8Vec)
# against the scalar butterflies at every tail, and Merkle leaves hashed
# straight from column-major data against HashOrNoopBatch over the rows.
stage_fuzz_dif8() { go test -run='^$' -fuzz='^FuzzDIF8Vec$' -fuzztime=20s ./internal/ntt; }
stage_fuzz_hash_columns() { go test -run='^$' -fuzz='^FuzzHashColumnsBatch$' -fuzztime=20s ./internal/poseidon; }
# Every field slice kernel on lengths 0 to 19 (each eight-lane tail),
# edge lanes and dst aliasing an operand, against the scalar field ops.
stage_fuzz_vec() { go test -run='^$' -fuzz='^FuzzVec$' -fuzztime=20s ./internal/field; }
# The Merkle verifier's walk, which hashes each distinct node once,
# against Verify on duplicate, conflicting, flipped, ragged, wrong,
# negative-index and out-of-cap openings.
stage_fuzz_verify_batch() { go test -run='^$' -fuzz='^FuzzVerifyBatch$' -fuzztime=20s ./internal/merkle; }
# Random expression DAGs with shared subtrees and challenge leaves,
# compiled and run over ragged tiles in both coset orders (wrapping
# next-row reads, bit-reversed gathers) and at an extension point under
# all four divisor classes, against the tree evaluators.
stage_fuzz_constraint() { go test -run='^$' -fuzz='^FuzzConstraintProgram$' -fuzztime=20s ./internal/constraint; }
# Random Connect/Set/Get sequences, with conflicts, padding-row targets
# and targets outside the circuit, through the dense plonk witness
# against the map-backed one: values and the first error must agree.
stage_fuzz_witness() { go test -run='^$' -fuzz='^FuzzWitness$' -fuzztime=20s ./internal/plonk; }
# Anything the proving service's request and result codecs decode must
# re-encode to the same value.
stage_fuzz_request() { go test -run='^$' -fuzz='^FuzzRequestRoundTrip$' -fuzztime=5s ./internal/jobs; }
stage_fuzz_result() { go test -run='^$' -fuzz='^FuzzResultRoundTrip$' -fuzztime=5s ./internal/jobs; }
# Journal replay: arbitrary bytes on disk must never panic the
# replayer — the worst acceptable outcome is a truncated tail, counted
# in stats. This is the corruption half of the durability story; the
# crash-recovery soak is the process-death half.
stage_fuzz_journal() { go test -run='^$' -fuzz='^FuzzJournalReplay$' -fuzztime=10s ./internal/journal; }
# Bounded store: arbitrary Get/Add/Delete/SetBudget sequences against a
# brute-force model. The weights stay within the budget, nothing heavier
# than it is kept, no decline was worth more than what it would have
# displaced, the count map stays bounded, and forced zero-cost inserts
# evict least recently used first.
stage_fuzz_store() { go test -run='^$' -fuzz='^FuzzStore$' -fuzztime=10s ./internal/store; }

# Benchmark self-test: the repository benchmark (benchmark/, its own
# module, so `./...` skips it) builds the serving binaries and drives
# them through serverclient, /metrics keys and flags. A wire or
# metrics-key break in the served path fails here, before the pipeline's
# benchmark run finds it.
stage_benchmark() { (cd benchmark && go test ./...); }

# serve builds cmd/$1 into $SMOKE_DIR and starts it on an ephemeral port
# with the remaining flags, setting pid and addr; drain stops it with
# SIGTERM and requires a clean exit.
serve() {
	bin=$1
	shift
	go build -o "$SMOKE_DIR/$bin" "./cmd/$bin"
	rm -f "$SMOKE_DIR/port"
	"$SMOKE_DIR/$bin" -addr 127.0.0.1:0 -portfile "$SMOKE_DIR/port" "$@" \
		>"$SMOKE_DIR/$bin.log" 2>&1 &
	pid=$!
	for _ in $(seq 1 100); do
		[ -s "$SMOKE_DIR/port" ] && break
		sleep 0.1
	done
	[ -s "$SMOKE_DIR/port" ] || { cat "$SMOKE_DIR/$bin.log"; exit 1; }
	addr=$(head -n1 "$SMOKE_DIR/port")
}
drain() {
	kill -TERM "$pid"
	wait "$pid"
	grep -q 'drained cleanly' "$SMOKE_DIR/$bin.log"
}
smoke() {
	serve "$@"
	go run ./cmd/prove -remote "http://$addr" -protocol plonky2 -app Fibonacci -rows 6
	go run ./cmd/prove -remote "http://$addr" -protocol starky -app Factorial -rows 6 -retries 3
	drain
}

# Serving smoke tests, one per tier: start the binary on an ephemeral
# port, prove one Plonky2 and one Starky job over HTTP (cmd/prove
# -remote re-verifies each proof locally), then drain it with SIGTERM
# and require a clean exit. unizk-server is the job-lifecycle core with
# the local executor; unizk-cluster is the same core with the remote
# executor over two self-spawned nodes. Then the negative case: a
# staleness bound that does not exceed the probe interval plus a probe
# timeout would eject a node on its first failed probe, so the
# coordinator must refuse to start (exit non-zero, naming both fields)
# rather than serve. The timeout keeps a regression from hanging CI.
stage_smoke() {
	smoke unizk-server -queue 8 -inflight 1
	smoke unizk-cluster -spawn 2
	if timeout 60 "$SMOKE_DIR/unizk-cluster" -addr 127.0.0.1:0 -spawn 1 -probe 1s -stale 1s \
		>"$SMOKE_DIR/stale.log" 2>&1; then
		cat "$SMOKE_DIR/stale.log"
		exit 1
	fi
	grep -q 'StaleAfter (1s) must exceed Config.ProbeInterval (1s)' "$SMOKE_DIR/stale.log"
}

# Registry smoke test: at its default flags unizk-server compiles each
# (kind, workload, logRows) circuit once, so two proves of one circuit
# cost one compile and the second hits the registry; -registry 0 turns
# the registry off, and both counters drop off /metrics.
stage_registry_smoke() {
	go build -o "$SMOKE_DIR/prove" ./cmd/prove
	serve unizk-server
	"$SMOKE_DIR/prove" -remote "http://$addr" -protocol plonky2 -app Fibonacci -rows 6
	"$SMOKE_DIR/prove" -remote "http://$addr" -protocol plonky2 -app Fibonacci -rows 6
	curl -sf "http://$addr/metrics" >"$SMOKE_DIR/metrics.json"
	grep -Eq '"registry_compiles": 1,' "$SMOKE_DIR/metrics.json" || { cat "$SMOKE_DIR/metrics.json"; exit 1; }
	grep -Eq '"registry_hits": [1-9][0-9]*,' "$SMOKE_DIR/metrics.json" || { cat "$SMOKE_DIR/metrics.json"; exit 1; }
	drain
	serve unizk-server -registry 0
	"$SMOKE_DIR/prove" -remote "http://$addr" -protocol plonky2 -app Fibonacci -rows 6
	"$SMOKE_DIR/prove" -remote "http://$addr" -protocol plonky2 -app Fibonacci -rows 6
	curl -sf "http://$addr/metrics" >"$SMOKE_DIR/metrics.json"
	if grep -Eq '"registry_(compiles|hits)"' "$SMOKE_DIR/metrics.json"; then
		cat "$SMOKE_DIR/metrics.json"
		exit 1
	fi
	drain
}

# The stage names, in file order.
STAGES=$(sed -n 's/^stage_\([a-z0-9_]*\)() .*/\1/p' "$0" | tr _ -)
if [ "${1:-}" = "--list" ]; then
	echo "$STAGES"
	exit 0
fi
[ $# -gt 0 ] || set -- $STAGES
for stage in "$@"; do
	echo "$STAGES" | grep -qx -- "$stage" || {
		echo "ci.sh: unknown stage \"$stage\"; stages:" >&2
		echo "$STAGES" >&2
		exit 2
	}
done
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
set -x
for stage in "$@"; do
	"stage_$(echo "$stage" | tr - _)"
done
