package ntt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"unizk/internal/field"
	"unizk/internal/parallel"
)

// Differential layer: every Transform Spec and Columns against the
// O(n²) DFT oracles in ntt_ref_test.go, over edge vectors and fuzzed inputs,
// through the worker pool at every count of workerSweep, one worker
// (the serial run) included. Sizes run up to twice parallelMin so the
// serial core, the pool-parallel layers and the cache-blocked tail pass
// are all pinned to the oracle.

// refMaxLog is the largest transform size the sweep checks; oracle cost
// is quadratic, so sizes above refEdgeMaxLog get a random vector only.
const (
	refMaxLog     = 12
	refEdgeMaxLog = 10
)

// refEdgeVectors are adversarial size-n inputs: zeros, ones, a lone
// impulse at the last slot, everything saturated at p-1, and a seeded
// random vector.
func refEdgeVectors(rng *rand.Rand, n int) [][]field.Element {
	zeros := make([]field.Element, n)
	ones := make([]field.Element, n)
	impulse := make([]field.Element, n)
	sat := make([]field.Element, n)
	for i := 0; i < n; i++ {
		ones[i] = field.One
		sat[i] = field.Element(field.Order - 1)
	}
	impulse[n-1] = field.New(rng.Uint64())
	return [][]field.Element{zeros, ones, impulse, sat, randVec(rng, n)}
}

// allSpecs is every Spec: forward or inverse, subgroup or coset, and
// natural or bit-reversed order on each side.
func allSpecs() []Spec {
	var specs []Spec
	for _, inverse := range []bool{false, true} {
		for _, shift := range []field.Element{0, field.MultiplicativeGenerator} {
			for _, inBR := range []bool{false, true} {
				for _, outBR := range []bool{false, true} {
					specs = append(specs, Spec{Inverse: inverse, Shift: shift, InBR: inBR, OutBR: outBR})
				}
			}
		}
	}
	return specs
}

// refTransform is the oracle for Transform(s): undo a bit-reversed input
// order, apply the defining (coset) DFT, and permute the output if s asks
// for bit-reversed order.
func refTransform(in []field.Element, s Spec) []field.Element {
	x := clone(in)
	if s.InBR {
		BitReversePermute(x)
	}
	var out []field.Element
	switch {
	case !s.Inverse && s.Shift == 0:
		out = RefForwardNN(x)
	case !s.Inverse:
		out = RefCosetForwardNN(x, s.Shift)
	case s.Shift == 0:
		out = RefInverseNN(x)
	default:
		out = RefCosetInverseNN(x, s.Shift)
	}
	if s.OutBR {
		BitReversePermute(out)
	}
	return out
}

// eachMode runs check through the pool at every worker count of
// workerSweep, the one-worker serial run first.
func eachMode(t *testing.T, check func(mode string)) {
	t.Helper()
	for _, workers := range workerSweep() {
		parallel.SetWorkers(workers)
		check(fmt.Sprintf("workers=%d", workers))
	}
}

func restoreParallel(t *testing.T) {
	prevWorkers := parallel.Workers()
	t.Cleanup(func() { parallel.SetWorkers(prevWorkers) })
}

// TestRefTransforms is the oracle sweep over edge and fuzzed vectors:
// all 16 Specs × sizes 2^0..2^10 × {1, 2, 7, NumCPU} workers.
func TestRefTransforms(t *testing.T) {
	refSweep(t, 0, refEdgeMaxLog)
}

// TestRefTransformsBlocked continues the sweep at the sizes where the
// butterflies run on the pool and the cache-blocked tail pass
// (2^11..2^12, random vector only; 2^11 alone under -short).
func TestRefTransformsBlocked(t *testing.T) {
	maxLog := refMaxLog
	if testing.Short() {
		maxLog = refEdgeMaxLog + 1
	}
	refSweep(t, refEdgeMaxLog+1, maxLog)
}

// refSweep checks Transform against refTransform for every Spec, every
// size 2^minLog..2^maxLog, and every mode of eachMode.
func refSweep(t *testing.T, minLog, maxLog int) {
	t.Helper()
	restoreParallel(t)
	ctx := context.Background()
	for logN := minLog; logN <= maxLog; logN++ {
		n := 1 << logN
		rng := rand.New(rand.NewSource(int64(n) * 7919))
		vectors := refEdgeVectors(rng, n)
		if logN > refEdgeMaxLog || (testing.Short() && n > 256) {
			vectors = vectors[len(vectors)-1:] // random vector only
		}
		for _, input := range vectors {
			for _, s := range allSpecs() {
				want := refTransform(input, s)
				eachMode(t, func(mode string) {
					got := clone(input)
					if err := Transform(ctx, got, s); err != nil {
						t.Fatalf("%+v n=%d %s: %v", s, n, mode, err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%+v n=%d %s: index %d = %#x, want %#x", s, n, mode, i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

// TestRefColumns feeds ragged source columns into garbage-filled
// destinations of mixed sizes: a column whose padding Columns failed to
// clear, or that ran the wrong Spec, differs from the zero-padded oracle.
// The 2^11 column runs its butterflies on the pool from inside a pool
// task.
func TestRefColumns(t *testing.T) {
	restoreParallel(t)
	rng := rand.New(rand.NewSource(977))
	shape := []struct{ srcLen, dstLen int }{{0, 1}, {1, 1}, {3, 16}, {16, 16}, {40, 64}, {5, 1 << 11}}
	src := make([][]field.Element, len(shape))
	padded := make([][]field.Element, len(shape))
	for i, sh := range shape {
		src[i] = randVec(rng, sh.srcLen)
		padded[i] = make([]field.Element, sh.dstLen)
		copy(padded[i], src[i])
	}
	for _, s := range allSpecs() {
		want := make([][]field.Element, len(shape))
		for i := range shape {
			want[i] = refTransform(padded[i], s)
		}
		eachMode(t, func(mode string) {
			dst := make([][]field.Element, len(shape))
			for i, sh := range shape {
				dst[i] = randVec(rng, sh.dstLen)
			}
			if err := Columns(context.Background(), dst, src, s); err != nil {
				t.Fatalf("%+v %s: %v", s, mode, err)
			}
			for i := range want {
				for j := range want[i] {
					if dst[i][j] != want[i][j] {
						t.Fatalf("%+v %s: column %d (src %d, dst %d) index %d differs",
							s, mode, i, shape[i].srcLen, shape[i].dstLen, j)
					}
				}
			}
		})
	}
}

// TestRefColumnsAlias runs Columns with every dst[i] aliasing src[i].
func TestRefColumnsAlias(t *testing.T) {
	restoreParallel(t)
	rng := rand.New(rand.NewSource(978))
	inputs := [][]field.Element{randVec(rng, 1), randVec(rng, 64), randVec(rng, 1<<11)}
	for _, s := range allSpecs() {
		want := make([][]field.Element, len(inputs))
		for i, in := range inputs {
			want[i] = refTransform(in, s)
		}
		eachMode(t, func(mode string) {
			cols := make([][]field.Element, len(inputs))
			for i, in := range inputs {
				cols[i] = clone(in)
			}
			if err := Columns(context.Background(), cols, cols, s); err != nil {
				t.Fatalf("%+v %s: %v", s, mode, err)
			}
			for i := range want {
				for j := range want[i] {
					if cols[i][j] != want[i][j] {
						t.Fatalf("%+v %s: aliased column %d index %d differs", s, mode, i, j)
					}
				}
			}
		})
	}
}

// countdownCtx reports cancellation from its left-th Err poll on, so a
// test can cancel at a fixed point inside a run instead of racing a
// timer.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRefColumnsCancel cancels Columns before it starts and part-way
// through: it must return the context's error and leave no goroutine
// behind.
func TestRefColumnsCancel(t *testing.T) {
	restoreParallel(t)
	rng := rand.New(rand.NewSource(979))
	cols := make([][]field.Element, 16)
	for i := range cols {
		cols[i] = randVec(rng, 1<<12)
	}
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	eachMode(t, func(mode string) {
		before := runtime.NumGoroutine()
		for _, polls := range []int64{0, 1, 5, 40} {
			ctx := context.Context(pre)
			if polls > 0 {
				c := &countdownCtx{Context: context.Background()}
				c.left.Store(polls)
				ctx = c
			}
			if err := Columns(ctx, cols, cols, Spec{Shift: field.MultiplicativeGenerator}); err == nil || err != ctx.Err() {
				t.Fatalf("%s, cancelled after %d polls: err = %v, want context.Canceled", mode, polls, err)
			}
		}
		for i := 0; runtime.NumGoroutine() > before; i++ {
			if i == 100 {
				t.Fatalf("%s: goroutines: %d before, %d after", mode, before, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestRefLDE pins the allocating LDE kernel, whose zero-padded coset
// transform rides the pooled buffers.
func TestRefLDE(t *testing.T) {
	restoreParallel(t)
	for _, n := range []int{1, 4, 64, 256, 1 << 10} {
		rng := rand.New(rand.NewSource(int64(n) + 31))
		coeffs := randVec(rng, n)
		for _, blowup := range []int{1, 2, 3} {
			want := RefLDE(coeffs, blowup, field.MultiplicativeGenerator)
			eachMode(t, func(mode string) {
				got := LDE(coeffs, blowup, field.MultiplicativeGenerator)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("LDE n=%d blowup=%d %s: index %d = %#x, want %#x",
							n, blowup, mode, i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestRefBitReverse pins BitReverse to the one-bit-per-iteration loop for
// every width 0..32, on edge values (zero, all ones, lone high and low
// bits, values with bits above the width, negatives) and random values.
func TestRefBitReverse(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for nbits := 0; nbits <= 32; nbits++ {
		xs := []int{0, 1, -1, 2, 1<<nbits - 1, 1 << nbits, 1<<nbits | 1, 0x5555_5555_5555, math.MaxInt, math.MinInt}
		if nbits > 0 {
			xs = append(xs, 1<<(nbits-1))
		}
		for range 64 {
			xs = append(xs, int(rng.Uint64()))
		}
		for _, x := range xs {
			if got, want := BitReverse(x, nbits), refBitReverse(x, nbits); got != want {
				t.Fatalf("BitReverse(%#x, %d) = %#x, want %#x", x, nbits, got, want)
			}
		}
	}
}

// TestRefCosetDomainBR pins the cached bit-reversed coset domain to
// first-principles points g·w^rev(j).
func TestRefCosetDomainBR(t *testing.T) {
	for _, logM := range []int{0, 1, 4, 9} {
		m := 1 << logM
		w := field.PrimitiveRootOfUnity(logM)
		got := CosetDomainBR(logM)
		if len(got) != m {
			t.Fatalf("CosetDomainBR(%d): len %d, want %d", logM, len(got), m)
		}
		for j := 0; j < m; j++ {
			want := field.Mul(field.MultiplicativeGenerator,
				field.Exp(w, uint64(BitReverse(j, logM))))
			if got[j] != want {
				t.Fatalf("CosetDomainBR(%d)[%d] = %#x, want %#x", logM, j, got[j], want)
			}
		}
	}
}
