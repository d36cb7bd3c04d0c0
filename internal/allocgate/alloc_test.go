package allocgate

import (
	"context"
	"testing"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/plonk"
	"unizk/internal/poseidon"
	"unizk/internal/stark"
)

// serialRun forces serial execution for the duration of fn so that
// AllocsPerRun measures the kernels themselves, not the worker pool's
// dispatch closures, then restores the previous mode.
func serialRun(t *testing.T, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	prev := parallel.SerialMode()
	parallel.SetSerial(true)
	defer parallel.SetSerial(prev)
	fn()
}

// pinZero asserts that fn performs no steady-state heap allocations.
// The average over many runs is compared against 1 rather than 0 so a
// stray GC-triggered allocation in the runtime cannot flake the gate.
func pinZero(t *testing.T, name string, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, fn); avg >= 1 {
		t.Errorf("%s: %.1f allocs/run, want 0 in steady state", name, avg)
	}
}

// pinAtMost asserts that fn's steady-state allocation count stays under
// the pinned budget. Budgets are measured values with ~1.5x headroom:
// tight enough to catch a kernel that starts allocating per element,
// loose enough to survive compiler-version drift.
func pinAtMost(t *testing.T, name string, budget float64, fn func()) {
	t.Helper()
	avg := testing.AllocsPerRun(20, fn)
	if avg > budget {
		t.Errorf("%s: %.1f allocs/run, budget %.0f", name, avg, budget)
	}
	t.Logf("%s: %.1f allocs/run (budget %.0f)", name, avg, budget)
}

// TestKernelAllocs pins the leaf kernels annotated //unizklint:hotpath
// at zero steady-state allocations: batch inversion uses pooled scratch,
// NTTs use memoized twiddle tables, and Poseidon/Merkle work entirely in
// value types.
func TestKernelAllocs(t *testing.T) {
	serialRun(t, func() {
		const n = 512

		xs := make([]field.Element, n)
		for i := range xs {
			xs[i] = field.New(uint64(i + 3))
		}
		field.BatchInverse(xs) // warm the scratch pool
		pinZero(t, "field.BatchInverse", func() { field.BatchInverse(xs) })

		es := make([]field.Ext, n)
		for i := range es {
			es[i] = field.NewExt(uint64(i+3), uint64(i+5))
		}
		field.ExtBatchInverse(es)
		pinZero(t, "field.ExtBatchInverse", func() { field.ExtBatchInverse(es) })

		var st poseidon.State
		for i := range st {
			st[i] = field.New(uint64(i))
		}
		pinZero(t, "poseidon.Permute", func() { st = poseidon.Permute(st) })

		// The grind's search state is pooled: one warm-up call, then
		// nothing per grind or per candidate.
		ch := poseidon.NewChallenger()
		for i := range 5 {
			ch.Observe(field.New(uint64(i)))
		}
		grind := func() {
			if _, _, err := ch.Grind(context.Background(), 8); err != nil {
				t.Fatalf("grind: %v", err)
			}
		}
		grind()
		pinZero(t, "poseidon.Challenger.Grind", grind)

		// 1<<10 stays below the NTT's parallel threshold, so the serial
		// path runs even without SetSerial; the first call populates the
		// twiddle cache.
		data := make([]field.Element, 1<<10)
		for i := range data {
			data[i] = field.New(uint64(i * 7))
		}
		ntt.ForwardNN(data)
		pinZero(t, "ntt.ForwardNN", func() { ntt.ForwardNN(data) })
		pinZero(t, "ntt.InverseNN", func() { ntt.InverseNN(data) })

		leaves := make([][]field.Element, 64)
		for i := range leaves {
			leaves[i] = []field.Element{field.New(uint64(i)), field.New(uint64(i * i))}
		}
		tree := merkle.Build(leaves, 1)
		leaf, proof := tree.Open(13)
		cap := tree.Cap()
		pinZero(t, "merkle.Verify", func() {
			if err := merkle.Verify(leaf, 13, proof, cap); err != nil {
				t.Fatalf("verify: %v", err)
			}
		})
	})
}

// TestTwiddleCacheAllocs pins the table-cache hit paths: once a size's
// tables are cached, transforms and coset scalings at that size must not
// allocate — a regression here means a cache key stopped matching and
// every proof is silently rebuilding tables.
func TestTwiddleCacheAllocs(t *testing.T) {
	serialRun(t, func() {
		const logN = 10
		ntt.Preload(logN) // forward + inverse twiddle tables
		data := make([]field.Element, 1<<logN)
		for i := range data {
			data[i] = field.New(uint64(i*13 + 5))
		}
		shift := field.MultiplicativeGenerator

		// Warm the coset power tables (shift and shift^-1) and the
		// scratch pools, then pin the cache-hit steady state.
		ntt.CosetForwardNN(data, shift)
		ntt.CosetInverseNN(data, shift)
		pinZero(t, "ntt.CosetForwardNN", func() { ntt.CosetForwardNN(data, shift) })
		pinZero(t, "ntt.CosetInverseNN", func() { ntt.CosetInverseNN(data, shift) })
		pinZero(t, "ntt.CosetForwardNR", func() { ntt.CosetForwardNR(data, shift) })

		// Cached domain-point and twiddle lookups themselves.
		_ = ntt.CosetDomainBR(logN)
		pinZero(t, "ntt.CosetDomainBR", func() { _ = ntt.CosetDomainBR(logN) })
		pinZero(t, "ntt.Preload(hit)", func() { ntt.Preload(logN) })
	})
}

// TestMultiDimAllocs pins the six-step decomposition's steady state: the
// transpose/twiddle scratch cycles through the package pool, so repeated
// transforms of one shape allocate only the returned output slice.
func TestMultiDimAllocs(t *testing.T) {
	serialRun(t, func() {
		const logN = 10
		data := make([]field.Element, 1<<logN)
		for i := range data {
			data[i] = field.New(uint64(i*31 + 1))
		}
		dims := ntt.HardwareDims(logN, 5)
		_ = ntt.MultiDimForwardNN(data, dims) // warm scratch pool + tables
		// One output slice (+ header) per call is inherent to the API.
		pinAtMost(t, "ntt.MultiDimForwardNN", 3, func() { _ = ntt.MultiDimForwardNN(data, dims) })
	})
}

// TestFoldLayerAllocs pins the standalone FRI fold kernel: pooled
// xPow/inv2x scratch means the only steady-state allocation is the
// returned half-size layer.
func TestFoldLayerAllocs(t *testing.T) {
	serialRun(t, func() {
		layer := make([]field.Ext, 1<<10)
		for i := range layer {
			layer[i] = field.NewExt(uint64(i+2), uint64(3*i+1))
		}
		beta := field.NewExt(11, 7)
		shift := field.MultiplicativeGenerator
		_ = fri.FoldLayer(layer, beta, shift) // warm scratch + root tables
		// The returned layer plus the chunk closures' captures; the O(n)
		// xPow/inv2x scratch is what the pool eliminates.
		pinAtMost(t, "fri.FoldLayer", 6, func() { _ = fri.FoldLayer(layer, beta, shift) })
	})
}

// allocBudget is the per-proof allocation pin for each prover. The
// values are measured steady-state counts with ~1.5x headroom; if a
// change pushes a prover past its budget, either find the regression or
// re-measure and justify the new pin in the commit.
const (
	plonkProofBudget = 920 // measured ~614 on the fib-40 circuit with the pooled grind and reused challenger outputs
	starkProofBudget = 670 // measured ~445 on the 2^6-row fib AIR with the pooled grind and reused challenger outputs
)

// TestPlonkProofAllocs pins the whole-proof allocation count of the
// PLONK prover on the Fibonacci circuit. Per-proof work (wire traces,
// FRI layers, Merkle trees) legitimately allocates; the pin guards the
// order of magnitude so an accidental per-element allocation in a hot
// loop (n log n extra allocs) fails loudly.
func TestPlonkProofAllocs(t *testing.T) {
	serialRun(t, func() {
		b := plonk.NewBuilder()
		f0 := b.AddPublicInput()
		f1 := b.AddPublicInput()
		result := b.AddPublicInput()
		prev, cur := f0, f1
		for i := 2; i <= 40; i++ {
			prev, cur = cur, b.Add(prev, cur)
		}
		b.AssertEqual(cur, result)
		c := b.Build(fri.TestConfig())

		want := field.Zero
		{
			a, bb := field.Zero, field.One
			for i := 2; i <= 40; i++ {
				a, bb = bb, field.Add(a, bb)
			}
			want = bb
		}

		prove := func() {
			w := c.NewWitness()
			w.Set(f0, field.New(0))
			w.Set(f1, field.New(1))
			w.Set(result, want)
			if _, err := c.Prove(w, nil); err != nil {
				t.Fatalf("prove: %v", err)
			}
		}
		prove() // warm pools and twiddle caches
		pinAtMost(t, "plonk.Prove(fib-40)", plonkProofBudget, prove)
	})
}

// TestStarkProofAllocs pins the whole-proof allocation count of the
// STARK prover on the paper's Fibonacci AIR at 2^6 rows.
func TestStarkProofAllocs(t *testing.T) {
	serialRun(t, func() {
		const logN = 6
		n := 1 << logN
		c0 := make([]field.Element, n)
		c1 := make([]field.Element, n)
		c0[0], c1[0] = field.Zero, field.One
		for r := 1; r < n; r++ {
			c0[r] = c1[r-1]
			c1[r] = field.Add(c0[r-1], c1[r-1])
		}
		air := stark.AIR{
			Width: 2,
			Transitions: []*stark.Expr{
				stark.Sub(stark.Next(0), stark.Col(1)),
				stark.Sub(stark.Next(1), stark.Add(stark.Col(0), stark.Col(1))),
			},
			FirstRow: []stark.Boundary{{Col: 0, Value: 0}, {Col: 1, Value: 1}},
			LastRow:  []stark.Boundary{{Col: 1, Value: c1[n-1]}},
		}
		s, err := stark.New(air, logN, fri.TestConfig())
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		cols := [][]field.Element{c0, c1}

		prove := func() {
			if _, err := s.Prove(cols, nil); err != nil {
				t.Fatalf("prove: %v", err)
			}
		}
		prove()
		pinAtMost(t, "stark.Prove(fib-2^6)", starkProofBudget, prove)
	})
}
