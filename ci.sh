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
# their retained naive reference oracles (internal/field/goldilocks_ref.go's big.Int
# arithmetic, internal/ntt/ntt_ref.go's O(n^2) DFT) over fuzzed inputs
# and edge vectors, serial and parallel, under the race detector. The
# full -race run below repeats it; this step makes an arithmetic
# divergence fail under its own name.
go test -race -run 'TestRef|TestCache' ./internal/field ./internal/ntt

# Hash-path differential suite: the lane-based Poseidon permutation
# against PermuteNaive, and the block-parallel proof-of-work grind
# against the serial Clone loop it replaced (witness, tries and the
# transcript after it) across worker counts, serial mode and sub-block
# edges, plus the FRI grind node's serial-equivalent size, under the race
# detector. The full -race run below repeats it; this step makes a grind
# or permutation divergence fail under its own name.
go test -race -run 'Grind|Permute' ./internal/poseidon ./internal/fri

# Kernel trajectory regression check: with UNIZK_BENCH_ENFORCE=1 this
# re-measures the tracked kernel registry (internal/bench/trajectory)
# and fails on a >10% regression against the last committed
# BENCH_kernels.json entry for this host class; without it (or on a host
# class with no committed baseline) the test self-skips, because
# wall-clock numbers from unknown machines are noise, not a gate.
# Record a new trajectory entry with `go run ./cmd/unizk-bench -kernels`.
go test -timeout 20m -run '^TestTrajectoryRegression$' ./internal/bench/trajectory

# The race detector is a hard gate: every parallel kernel (NTT butterfly
# layers, Merkle levels, FRI fold/queries, quotient evaluation) runs under
# it via the differential serial-vs-parallel tests, which sweep worker
# counts {1, 2, 7, NumCPU}.
go test -race ./...

# Fuzz the decode+verify boundary of each protocol, plus the worker
# pool's chunking arithmetic, the Poseidon permutation against its naive
# oracle, and the proving-service request/response codecs, for a fixed
# budget. -run='^$' skips unit tests so the whole
# budget goes to fuzzing.
go test -run='^$' -fuzz='^FuzzPlonkUnmarshalVerify$' -fuzztime=10s ./internal/plonk
go test -run='^$' -fuzz='^FuzzStarkUnmarshalVerify$' -fuzztime=10s ./internal/stark
go test -run='^$' -fuzz='^FuzzForCoverage$' -fuzztime=10s ./internal/parallel
go test -run='^$' -fuzz='^FuzzPermute$' -fuzztime=20s ./internal/poseidon
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
