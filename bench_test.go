// Package unizk's top-level benchmarks regenerate each table and figure
// of the paper's evaluation (§7) through the testing.B interface:
//
//	go test -bench=. -benchmem
//
// Each benchmark runs the corresponding generator from internal/bench at
// a reduced scale (2^10 Plonk rows) so the whole suite completes in
// minutes; cmd/unizk-bench runs the same generators at larger scales and
// prints the rendered tables. The per-op time reported for each benchmark
// is the cost of regenerating that table (proving, simulating, and
// formatting).
package unizk_test

import (
	"context"
	"math/rand"
	"testing"

	"unizk/internal/bench"
	"unizk/internal/bench/trajectory"
	"unizk/internal/field"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
)

// benchOpts is the shared reduced scale for benchmark runs.
func benchOpts() bench.Options {
	o := bench.DefaultOptions()
	o.LogRows = 10
	o.StarkLogN = 10
	return o
}

// runReport drives one generator, reusing the runner (and therefore the
// memoized proving work) across iterations.
func runReport(b *testing.B, gen func(*bench.Runner) (bench.Report, error)) {
	b.Helper()
	r := bench.NewRunner(benchOpts())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := gen(r)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Text) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTable1 regenerates the CPU proof-generation time breakdown
// (paper Table 1).
func BenchmarkTable1(b *testing.B) {
	runReport(b, func(r *bench.Runner) (bench.Report, error) { return r.Table1() })
}

// BenchmarkTable2 regenerates the area and power breakdown (paper
// Table 2).
func BenchmarkTable2(b *testing.B) {
	runReport(b, func(r *bench.Runner) (bench.Report, error) { return r.Table2() })
}

// BenchmarkTable3 regenerates the CPU/GPU/UniZK end-to-end comparison
// (paper Table 3).
func BenchmarkTable3(b *testing.B) {
	runReport(b, func(r *bench.Runner) (bench.Report, error) { return r.Table3() })
}

// BenchmarkTable4 regenerates the memory and VSA utilization breakdown
// (paper Table 4).
func BenchmarkTable4(b *testing.B) {
	runReport(b, func(r *bench.Runner) (bench.Report, error) { return r.Table4() })
}

// BenchmarkTable5 regenerates the Starky + Plonky2 recursion comparison
// (paper Table 5).
func BenchmarkTable5(b *testing.B) {
	runReport(b, func(r *bench.Runner) (bench.Report, error) { return r.Table5() })
}

// BenchmarkTable6 regenerates the PipeZK/Groth16 comparison (paper
// Table 6).
func BenchmarkTable6(b *testing.B) {
	runReport(b, func(r *bench.Runner) (bench.Report, error) { return r.Table6() })
}

// BenchmarkFigure8 regenerates the UniZK time breakdown by kernel type
// (paper Figure 8).
func BenchmarkFigure8(b *testing.B) {
	runReport(b, func(r *bench.Runner) (bench.Report, error) { return r.Figure8() })
}

// BenchmarkFigure9 regenerates the per-kernel speedups (paper Figure 9).
func BenchmarkFigure9(b *testing.B) {
	runReport(b, func(r *bench.Runner) (bench.Report, error) { return r.Figure9() })
}

// BenchmarkFigure10 regenerates the design space exploration (paper
// Figure 10).
func BenchmarkFigure10(b *testing.B) {
	runReport(b, func(r *bench.Runner) (bench.Report, error) { return r.Figure10() })
}

// BenchmarkSpeedupReport regenerates the serial-vs-parallel kernel
// comparison for the BENCH output.
func BenchmarkSpeedupReport(b *testing.B) {
	runReport(b, func(r *bench.Runner) (bench.Report, error) { return r.Speedup() })
}

// benchSerialParallel times fn with the worker pool forced serial and
// again on the default pool, as sub-benchmarks.
func benchSerialParallel(b *testing.B, fn func()) {
	b.Helper()
	fn() // warm twiddles, constants, and pool goroutines off the clock
	b.Run("Serial", func(b *testing.B) {
		parallel.SetSerial(true)
		defer parallel.SetSerial(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	b.Run("Parallel", func(b *testing.B) {
		parallel.SetSerial(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
}

// BenchmarkNTT2e18 measures the forward NTT at the acceptance-criterion
// scale (2^18), forced-serial vs the shared worker pool.
func BenchmarkNTT2e18(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vec := make([]field.Element, 1<<18)
	for i := range vec {
		vec[i] = field.New(rng.Uint64())
	}
	scratch := make([]field.Element, len(vec))
	benchSerialParallel(b, func() {
		copy(scratch, vec)
		if err := ntt.Transform(context.Background(), scratch, ntt.Spec{}); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkMerkle2e16 measures Merkle tree construction over 2^16
// leaves, forced-serial vs the shared worker pool.
func BenchmarkMerkle2e16(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	leaves := make([][]field.Element, 1<<16)
	for i := range leaves {
		leaves[i] = make([]field.Element, 4)
		for j := range leaves[i] {
			leaves[i][j] = field.New(rng.Uint64())
		}
	}
	benchSerialParallel(b, func() { merkle.Build(leaves, 4) })
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
