// Package unizk's top-level benchmarks regenerate each table and figure
// of the paper's evaluation (§7) through the testing.B interface:
//
//	go test -run '^$' -bench Reports -benchmem
//
// BenchmarkReports runs each generator from internal/bench at a reduced
// scale (2^10 Plonk rows) so the whole suite completes in minutes;
// cmd/unizk-bench runs the same generators at larger scales and prints
// the rendered tables. The per-op time reported for each report is the
// cost of regenerating it (proving, simulating, and formatting).
package unizk_test

import (
	"testing"

	"unizk/internal/bench"
	"unizk/internal/bench/trajectory"
)

// BenchmarkReports regenerates every report of the registry in paper
// order, one sub-benchmark per ID (Table_1 … Ablation). Each
// sub-benchmark reuses one runner, and therefore its memoized proving
// work, across iterations.
func BenchmarkReports(b *testing.B) {
	opts := bench.DefaultOptions()
	opts.LogRows = 10
	opts.StarkLogN = 10
	for _, id := range bench.IDs() {
		b.Run(id, func(b *testing.B) {
			r := bench.NewRunner(opts)
			for i := 0; i < b.N; i++ {
				rep, err := r.Generate(id)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Text) == 0 {
					b.Fatal("empty report")
				}
			}
		})
	}
}

// BenchmarkKernels runs the tracked per-kernel registry from
// internal/bench/trajectory under the standard -bench interface, so the
// exact workloads recorded in BENCH_kernels.json can be profiled and
// benchstat-ed interactively:
//
//	go test -bench 'Kernels/ntt' -benchmem
func BenchmarkKernels(b *testing.B) {
	for _, k := range trajectory.Kernels() {
		b.Run(k.Name, k.Bench)
	}
}
