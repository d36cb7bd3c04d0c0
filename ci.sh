#!/bin/sh
# ci.sh — the full local CI gate: static checks, build, the complete test
# suite under the race detector (includes the adversarial fault-injection
# harness in internal/faultinject), and short coverage-guided fuzz runs of
# both proof decoders+verifiers. See README.md "Robustness and CI".
set -eux

go vet ./...
go build ./...

# unizklint (cmd/unizklint, analyzers in internal/lint) mechanically
# enforces the prover/verifier safety invariants of DESIGN.md §8:
# canonical field construction, checked wire decodes, classified verifier
# errors, cancellable loops, and Fiat–Shamir determinism. The tree must be
# clean before the test suite runs; suppressions require an
# //unizklint:allow <analyzer> <reason> directive.
go run ./cmd/unizklint ./...

# Third-party static analysis is a mandatory gate (versions are pinned
# in _tools/tools.go and installed by the ci.yml workflow). Offline or
# minimal environments that cannot `go install` the tools must opt out
# explicitly with UNIZK_CI_OFFLINE=1 — a missing tool without the opt-out
# fails the gate instead of silently skipping.
if [ "${UNIZK_CI_OFFLINE:-}" = "1" ]; then
	echo "UNIZK_CI_OFFLINE=1: skipping staticcheck and govulncheck"
else
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
fi

# Hot-path allocation gate: AllocsPerRun pins for the kernels annotated
# //unizklint:hotpath (zero steady-state allocations) and for whole
# proofs (measured budgets with headroom). Deliberately without -race:
# the race runtime allocates, which would poison the counts (the tests
# skip themselves under -race, so the full -race run below stays green).
go test -timeout 5m ./internal/allocgate

# Job-lifecycle core race gate: internal/jobcore driven by a scripted
# fake executor (admission rollback, status table, idempotency,
# long-poll/SSE, journal recovery), the proof cache's admission and
# eviction under concurrent Begin/Complete/Abort/Put, and the journal's
# known-result set shared by concurrent appenders, under the race
# detector. The full -race run below repeats it; this step makes a
# lifecycle, cache or journal regression fail under its own name.
go test -race ./internal/jobcore ./internal/proofcache ./internal/journal

# Chaos soak (fixed seed, small circuits): concurrent clients drive real
# proof jobs through injected connection resets, truncated responses,
# and 503 blips, retrying under idempotency keys. The gate asserts
# bit-identical proofs, exactly one prove per unique job, every error
# classified retryable, and zero goroutine leaks — all under the race
# detector. The full -race run below repeats it; this step makes a
# chaos regression fail under its own name.
go test -race -timeout 10m -run '^TestChaosSoak$' ./internal/faultinject/netchaos

# Cluster chaos soak (fixed seed, 3 nodes): the fault-tolerant
# coordinator drives concurrent retrying clients through per-node
# fault-injecting listeners while node 0 is hard-killed mid-load and
# restarted on the same address. The gate asserts bit-identical proofs,
# duplicate work accounted across node epochs (no node process proves a
# job twice; every surplus invocation is paid for by a recorded
# re-dispatch), the restart detected as an epoch change, and zero
# goroutine leaks — all under the race detector. The full -race run
# below repeats it; this step makes a cluster regression fail under its
# own name.
go test -race -timeout 10m -run '^TestClusterChaosSoak$' ./internal/cluster

# Cache soak (fixed seed, both topologies): distinct-tenant clients
# hammer the same request contents — no idempotency keys — through a
# chaos-wrapped single server and a 3-node cluster with the
# content-addressed proof cache on. The gate asserts exactly one prove
# per unique content (cache hits and coalesced flights absorb the
# rest), bit-identical proofs, 429 + Retry-After for a starved tenant
# with other tenants unaffected, honest cache/tenant counters, and zero
# goroutine leaks — all under the race detector. The full -race run
# below repeats it; this step makes a serving-tier regression fail
# under its own name.
go test -race -timeout 10m -run '^TestCacheSoak$' ./internal/faultinject/netchaos
go test -race -timeout 10m -run '^TestClusterCacheSoak$' ./internal/cluster

# crash-recovery-soak (fixed seed): a *journaled* coordinator subprocess
# is SIGKILLed mid-load and restarted on the same journal directory and
# address — twice, the second time onto a journal with a torn tail. The
# gate asserts zero acknowledged jobs lost, proofs bit-identical across
# the crash, the exactly-once sandwich (unique proves ≤ invocations ≤
# unique + recorded re-dispatches), the persisted epoch visible on
# /healthz, torn tails truncated and counted instead of failing startup,
# and zero goroutine leaks — all under the race detector. The full -race
# run below repeats it; this step makes a durability regression fail
# under its own name.
go test -race -timeout 15m -run '^TestCrashRecoverySoak$' ./internal/cluster

# Kernel differential suite: the optimized field and NTT kernels against
# their retained naive reference oracles (internal/field/goldilocks_ref_test.go's big.Int
# arithmetic, internal/ntt/ntt_ref_test.go's O(n^2) DFT) over fuzzed inputs
# and edge vectors, serial and parallel, and the field slice layer's
# FuzzVec seeds against the scalar ops, under the race detector. The
# full -race run below repeats it; this step makes an arithmetic
# divergence fail under its own name.
go test -race -run 'TestRef|TestCache|Vec' ./internal/field ./internal/ntt

# Hash-path differential suite: the lane-based Poseidon permutation and
# the batched eight-wide one against PermuteNaive, the eight-wide
# kernel's MDS layer alone against the dense matrix, and the block-parallel
# proof-of-work grind against the serial Clone loop it replaced
# (witness, tries and the transcript after it) across worker counts,
# serial mode, sub-block edges and batch positions, plus the FRI grind
# node's serial-equivalent size, under the race detector. The full -race run below repeats it; this step makes a grind
# or permutation divergence fail under its own name.
go test -race -run 'Grind|Permute|MDS' ./internal/poseidon ./internal/fri

# Verifier differential suite: the FRI verifier's parallel query loop
# against its serial reference on tampered plonk and stark proofs at one,
# two and seven workers and in serial mode (faults on both sides of a
# chunk edge, twice in one chunk, in the last partial chunk), a panic in
# a query chunk classified as CatchPanic classifies it, batched Merkle-path
# verification against Verify, and the plonk and stark verifiers' own
# rejection tests, and the PIOP driver's prove/replay round trip and shape
# checks, under the race detector. The full -race run below repeats it;
# this step makes a verifier divergence fail under its own name.
go test -race -run 'Verify' ./internal/fri ./internal/merkle ./internal/plonk ./internal/stark ./internal/piop

# Mutation harness: every mutant of a pristine plonk and stark proof
# (bit flips, truncations, non-canonical elements, length prefixes,
# structured edits) must be rejected with its prooferr class, never
# accepted and never a panic; the tamper taxonomy pins one class per
# proof component, and the pristine proofs must be identical serial and
# parallel. The full -race run below repeats it; this step makes a false
# accept or a panic in either verifier fail under its own name.
go test -race -run 'FaultInjection|TamperTaxonomy|PristineProofs' ./internal/faultinject

# Portable hash and NTT path: on an AVX-512 host the batched permutation
# and the field slice layer (NTT butterflies and scalings, the constraint
# program, the quotient and FRI's reduce) run in assembly, so this step
# builds with the standard purego tag to keep the portable loops (the
# path on every other host) under the same differential tests — the
# slice kernels against the scalar ops, EvalAll against Horner's rule,
# the batch against PermuteNaive, batched Merkle trees against the scalar
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
go test -tags purego -race -run 'Permute|Grind|Batch|Build|Verify|Ref|Quotient|Butterflies|Scale|Combine|Program|Constraint|Witness|Vec|EvalAll' ./internal/field ./internal/poseidon ./internal/merkle ./internal/fri ./internal/ntt ./internal/constraint ./internal/plonk ./internal/stark ./internal/piop

# Kernel trajectory regression check: with UNIZK_BENCH_ENFORCE=1 this
# re-measures the tracked kernel registry (internal/bench/trajectory)
# and fails on a >10% regression against the last committed
# BENCH_kernels.json entry for this host class; without it (or on a host
# class with no committed baseline) the test self-skips, because
# wall-clock numbers from unknown machines are noise, not a gate.
# Record a new trajectory entry with `go run ./cmd/unizk-bench -kernels`.
go test -timeout 20m -run '^TestTrajectoryRegression$' ./internal/bench/trajectory

# Bench registries: run one iteration of every tracked kernel and every
# paper report (Table 1 … Ablation), so a benchmark body that no longer
# runs — or a report the registry stopped covering — fails here instead
# of compiling silently under the test run.
go test -run '^$' -bench 'Kernels|Reports' -benchtime 1x .

# The race detector is a hard gate: every parallel kernel (NTT butterfly
# layers, Merkle levels, FRI fold/queries, quotient evaluation) runs under
# it via the differential serial-vs-parallel tests, which sweep worker
# counts {1, 2, 7, NumCPU}.
go test -race ./...

# Fuzz the decode+verify boundary of each protocol, plus the worker
# pool's chunking arithmetic, the Poseidon permutation against its naive
# oracle, the eight-lane NTT butterflies against the scalar loop, every
# kernel of the field slice layer against the scalar field ops,
# batched Merkle-path verification against Verify, the compiled
# constraint program against the expression trees, the dense plonk
# witness against the map-backed one, and the
# proving-service request/response codecs, for a fixed
# budget. -run='^$' skips unit tests so the whole
# budget goes to fuzzing.
go test -run='^$' -fuzz='^FuzzPlonkUnmarshalVerify$' -fuzztime=10s ./internal/plonk
go test -run='^$' -fuzz='^FuzzStarkUnmarshalVerify$' -fuzztime=10s ./internal/stark
go test -run='^$' -fuzz='^FuzzForCoverage$' -fuzztime=10s ./internal/parallel
go test -run='^$' -fuzz='^FuzzPermute$' -fuzztime=20s ./internal/poseidon
go test -run='^$' -fuzz='^FuzzPermuteX8$' -fuzztime=20s ./internal/poseidon
go test -run='^$' -fuzz='^FuzzDIFButterfliesX8$' -fuzztime=20s ./internal/ntt
# Commit path fuzz: the NTT's last three layers on eight lanes against
# the scalar butterflies, and Merkle leaves hashed straight from columns
# against HashOrNoopBatch over the transposed rows.
go test -run='^$' -fuzz='^FuzzDIF8Vec$' -fuzztime=20s ./internal/ntt
go test -run='^$' -fuzz='^FuzzHashColumnsBatch$' -fuzztime=20s ./internal/poseidon
go test -run='^$' -fuzz='^FuzzVec$' -fuzztime=20s ./internal/field
go test -run='^$' -fuzz='^FuzzVerifyBatch$' -fuzztime=20s ./internal/merkle
go test -run='^$' -fuzz='^FuzzConstraintProgram$' -fuzztime=20s ./internal/constraint
go test -run='^$' -fuzz='^FuzzWitness$' -fuzztime=20s ./internal/plonk
go test -run='^$' -fuzz='^FuzzRequestRoundTrip$' -fuzztime=5s ./internal/jobs
go test -run='^$' -fuzz='^FuzzResultRoundTrip$' -fuzztime=5s ./internal/jobs

# Journal replay fuzz: arbitrary bytes on disk must never panic the
# replayer — the worst acceptable outcome is a truncated tail, counted
# in stats. This is the corruption half of the durability story; the
# crash-recovery soak above is the process-death half.
go test -run='^$' -fuzz='^FuzzJournalReplay$' -fuzztime=10s ./internal/journal

# Benchmark self-test: the repository benchmark (benchmark/, its own
# module, so `./...` above skips it) builds the serving binaries and
# drives them through serverclient, /metrics keys and flags. A wire or
# metrics-key break in the served path fails here, before the pipeline's
# benchmark run finds it.
(cd benchmark && go test ./...)

# Serving smoke tests, one per tier: start the binary on an ephemeral
# port, prove one Plonky2 and one Starky job over HTTP (cmd/prove
# -remote re-verifies each proof locally), then drain it with SIGTERM
# and require a clean exit. unizk-server is the job-lifecycle core with
# the local executor; unizk-cluster is the same core with the remote
# executor over two self-spawned nodes.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
smoke() {
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
	go run ./cmd/prove -remote "http://$addr" -protocol plonky2 -app Fibonacci -rows 6
	go run ./cmd/prove -remote "http://$addr" -protocol starky -app Factorial -rows 6 -retries 3
	kill -TERM "$pid"
	wait "$pid"
	grep -q 'drained cleanly' "$SMOKE_DIR/$bin.log"
}
smoke unizk-server -queue 8 -inflight 1
smoke unizk-cluster -spawn 2

# Negative case: a staleness bound that does not exceed the probe
# interval plus a probe timeout would eject a node on its first failed
# probe, so the coordinator must refuse to start (exit non-zero, naming
# both fields) rather than serve. The timeout keeps a regression from hanging CI.
if timeout 60 "$SMOKE_DIR/unizk-cluster" -addr 127.0.0.1:0 -spawn 1 -probe 1s -stale 1s \
	>"$SMOKE_DIR/stale.log" 2>&1; then
	cat "$SMOKE_DIR/stale.log"
	exit 1
fi
grep -q 'StaleAfter (1s) must exceed Config.ProbeInterval (1s)' "$SMOKE_DIR/stale.log"
