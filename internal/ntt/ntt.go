// Package ntt implements the prover's number theoretic transforms over
// the Goldilocks field. The accelerator's SAM decomposition of a
// variable-length transform onto fixed-size pipelines (paper §5.1) is
// modelled in internal/core, which checks it against Transform.
//
// Every variant is one butterfly pipeline with a different twiddle or
// scaling stage, so one entry point runs them all: Transform takes a Spec
// selecting forward or inverse, the plain subgroup or a coset, and
// natural or bit-reversed order on each side, and Columns runs one
// Transform per column across the worker pool. Bit-reversed output is
// what FRI's low degree extension uses (paper Fig. 1, step 2).
package ntt

import (
	"context"
	"math/bits"

	"unizk/internal/field"
	"unizk/internal/parallel"
)

// Log2 returns log2(n) for a power of two n, panicking otherwise. Transform
// sizes are structural parameters, so a non-power-of-two is a programming
// error rather than a runtime condition.
func Log2(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		//unizklint:allow prooferrflow transform sizes are structural parameters; decoded lengths are validated before they reach Log2
		panic("ntt: size must be a positive power of two")
	}
	log := 0
	for 1<<log < n {
		log++
	}
	return log
}

// BitReverse returns x with its low nbits bits reversed; higher bits of x
// are dropped. nbits must be in [0, 64]; for 0 the shift by 64 gives 0.
//
//unizklint:hotpath
func BitReverse(x, nbits int) int {
	return int(bits.Reverse64(uint64(x)) >> (64 - nbits))
}

// BitReversePermute reorders data in place into bit-reversed index order.
// Applying it twice is the identity.
//
//unizklint:hotpath
func BitReversePermute(data []field.Element) {
	n := len(data)
	bits := Log2(n)
	for i := 0; i < n; i++ {
		j := BitReverse(i, bits)
		if i < j {
			data[i], data[j] = data[j], data[i]
		}
	}
}

// parallelMin is the transform size below which the butterfly layers run
// on the calling goroutine: chunk-claiming overhead would dominate the
// O(n log n) field work of a small transform. Both serial and parallel
// modes take the same path below this size, so differential tests at
// small sizes are trivially identical; sizes at or above it exercise the
// worker pool.
const parallelMin = 1 << 11

// butterflyGrain is the number of butterflies per worker chunk inside one
// layer.
const butterflyGrain = 1 << 9

// Cache blocking: once the butterfly span (2·half) fits a cache block,
// the remaining layers of a block are independent smaller transforms, so
// each block runs to completion serially while the block resides in
// cache — one load/store sweep for all trailing layers instead of one
// per layer. The canonical root tables compose exactly (w_n^(n/m) is the
// canonical 2^log m root used to build the size-m table, and field
// arithmetic is exact), so the blocked schedule is bit-identical to the
// flat layer-by-layer one.
//
// cacheBlockMax (2^15 elements = 256 KiB) keeps a block inside a typical
// L2 slice; cacheBlockMin (2^10 = 8 KiB) keeps per-block overhead
// negligible; n>>3 guarantees at least 8 blocks so mid-size transforms
// still spread across the pool.
const (
	cacheBlockMax = 1 << 15
	cacheBlockMin = 1 << 10
)

// blockElems picks the cache-block size for a size-n transform.
func blockElems(n int) int {
	bs := n >> 3
	if bs < cacheBlockMin {
		bs = cacheBlockMin
	}
	if bs > cacheBlockMax {
		bs = cacheBlockMax
	}
	if bs > n {
		bs = n
	}
	return bs
}

// difCore runs decimation-in-frequency butterflies in place: natural-order
// input, bit-reversed-order output. This is the dataflow UniZK maps onto
// the MDC pipeline (paper Fig. 4a). layers is the transform's layer
// table (layerTable), so the twiddles of a run of butterflies are
// contiguous, as an eight-lane load needs; a cache block reads the
// prefix of its transform's table that its own size needs. The last
// three layers run together on each block of eight.
//
//unizklint:hotpath
func difCore(data, layers []field.Element) {
	n := len(data)
	for half := n / 2; half >= 1; half >>= 1 {
		if half == 4 {
			field.DIF8Vec(data, spanRoots(layers, 4))
			return
		}
		roots := spanRoots(layers, half)
		for base := 0; base < n; base += 2 * half {
			field.ButterflyVec(data[base:base+half], data[base+half:base+2*half], roots)
		}
	}
}

// difCoreCtx is difCore with the early (long-span) butterfly layers
// fanned across the worker pool and the trailing layers cache-blocked:
// once spans fit a cache block, each block is an independent smaller DIF
// transform, run serially while the block stays cache-resident, with
// blocks fanned across the pool. Butterflies within a layer touch
// disjoint index pairs and blocks are disjoint slices, so the result is
// bit-identical to the serial core; layers are separated by the For
// barrier, preserving the layer-order data dependence.
func difCoreCtx(ctx context.Context, data []field.Element, inverse bool) error {
	n := len(data)
	layers := layerTable(Log2(n), inverse)
	if n < parallelMin {
		if err := ctx.Err(); err != nil {
			return err
		}
		difCore(data, layers)
		return nil
	}
	bs := blockElems(n)
	for half := n / 2; 2*half > bs; half >>= 1 {
		roots := spanRoots(layers, half)
		h := half
		err := parallel.For(ctx, n/2, butterflyGrain, func(lo, hi int) {
			forButterflySpans(lo, hi, h, func(block, j0, j1 int) {
				base := block * 2 * h
				field.ButterflyVec(data[base+j0:base+j1], data[base+h+j0:base+h+j1], roots[j0:j1])
			})
		})
		if err != nil {
			return err
		}
	}
	return parallel.For(ctx, n/bs, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			difCore(data[b*bs:(b+1)*bs], layers)
		}
	})
}

// forButterflySpans maps a flat butterfly index range [lo, hi) — b
// encodes (block, j) = (b/half, b%half) — onto maximal per-block spans,
// so the inner loops pay one div/mod per block rather than per butterfly.
//
//unizklint:hotpath
func forButterflySpans(lo, hi, half int, span func(block, j0, j1 int)) {
	for b := lo; b < hi; {
		block := b / half
		j0 := b - block*half
		j1 := half
		if j1-j0 > hi-b {
			j1 = j0 + (hi - b)
		}
		span(block, j0, j1)
		b += j1 - j0
	}
}

// Spec selects one transform variant. The zero value is the forward
// transform on the size-n subgroup H with natural order in and out.
type Spec struct {
	// Inverse interpolates evaluations back to coefficients, including
	// the 1/n scaling; otherwise coefficients are evaluated.
	Inverse bool
	// Shift, when nonzero, moves the evaluation domain to the coset
	// Shift·H. Zero selects H itself: 0 is never a valid coset shift.
	Shift field.Element
	// InBR and OutBR put the input and the output in bit-reversed index
	// order; natural order otherwise.
	InBR, OutBR bool
}

// Transform runs the transform s selects on data in place, with
// pool-parallel butterfly layers and cooperative cancellation. len(data)
// must be a power of two. On a non-nil error the data is partially
// transformed and must be discarded.
//
// The stages follow the paper's unit (§5.1, "NTT variants"): the coset
// pre-scaling by shift^i, which the hardware maps onto the idle
// inter-dimension twiddle PE, then the DIF butterflies (natural order
// in, bit-reversed out), then for the inverse the N^-1 and shift^-i
// scalings the last two PEs apply.
func Transform(ctx context.Context, data []field.Element, s Spec) error {
	if s.InBR {
		BitReversePermute(data)
	}
	if !s.Inverse && s.Shift != 0 {
		if err := scaleByPowersCtx(ctx, data, powerTable(s.Shift, Log2(len(data)))); err != nil {
			return err
		}
	}
	if err := difCoreCtx(ctx, data, s.Inverse); err != nil {
		return err
	}
	if s.Inverse {
		if err := scaleCtx(ctx, data, field.Inverse(field.New(uint64(len(data))))); err != nil {
			return err
		}
	}
	// The butterflies leave data bit-reversed; the inverse coset
	// unscaling indexes natural-order coefficients.
	unshift := s.Inverse && s.Shift != 0
	if !s.OutBR || unshift {
		BitReversePermute(data)
	}
	if unshift {
		if err := scaleByPowersCtx(ctx, data, powerTable(field.Inverse(s.Shift), Log2(len(data)))); err != nil {
			return err
		}
		if s.OutBR {
			BitReversePermute(data)
		}
	}
	return nil
}

// Columns transforms a batch of columns, one pool task per column: task
// i copies src[i] into dst[i], clears the rest of dst[i] (so pooled,
// dirty buffers zero-pad correctly) and runs Transform on it. A forward
// coset transform of a zero-padded column scales only the source prefix
// by the shift's powers, since the padding stays zero. The
// butterfly layers inside a column fan out further on the same pool.
// dst[i] may alias src[i] but must not be shorter. On error the first
// failing column's error (or the pool's) is returned and dst must be
// discarded.
func Columns(ctx context.Context, dst, src [][]field.Element, s Spec) error {
	if len(dst) != len(src) {
		panic("ntt: Columns needs one destination per source column")
	}
	errs := make([]error, len(src))
	err := parallel.For(ctx, len(src), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if len(dst[i]) < len(src[i]) {
				panic("ntt: column destination shorter than its source")
			}
			n := copy(dst[i], src[i])
			clear(dst[i][n:])
			spec := s
			if n < len(dst[i]) && !s.Inverse && s.Shift != 0 && !s.InBR {
				spec.Shift = 0
				if errs[i] = scaleByPowersCtx(ctx, dst[i][:n], powerTable(s.Shift, Log2(len(dst[i])))); errs[i] != nil {
					continue
				}
			}
			errs[i] = Transform(ctx, dst[i], spec)
		}
	})
	if err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// scale sets data[i] = data[i]·c.
//
//unizklint:hotpath
func scale(data []field.Element, c field.Element) { field.ScaleVec(data, c, data) }

// scaleCtx is scale fanned across the pool; each chunk owns a disjoint
// index range.
func scaleCtx(ctx context.Context, data []field.Element, c field.Element) error {
	if len(data) < parallelMin {
		scale(data, c)
		return nil
	}
	return parallel.For(ctx, len(data), 1<<10, func(lo, hi int) {
		scale(data[lo:hi], c)
	})
}

// scaleByTable sets data[i] = data[i]·table[i].
//
//unizklint:hotpath
func scaleByTable(data, table []field.Element) { field.MulVec(data, data, table) }

// scaleByPowersCtx multiplies data[i] by table[i], a cached power table
// (powerTable): one multiply per element instead of two, and repeated
// cosets (every LDE in a proof uses the same shift) reuse the table
// across jobs for free. The table is built by the same serial power walk
// the in-line accumulation used, so results are bit-identical.
func scaleByPowersCtx(ctx context.Context, data, table []field.Element) error {
	if len(data) < parallelMin {
		if err := ctx.Err(); err != nil {
			return err
		}
		scaleByTable(data, table)
		return nil
	}
	return parallel.For(ctx, len(data), 1<<10, func(lo, hi int) {
		scaleByTable(data[lo:hi], table[lo:hi])
	})
}

// ForwardNN transforms coefficients to evaluations on H, both in natural
// order: Transform with the zero Spec, for context-free callers.
func ForwardNN(data []field.Element) {
	parallel.Must(Transform(context.Background(), data, Spec{}))
}

// LDE performs the low degree extension of FRI step 2: the coefficient
// vector is zero-padded by the blowup factor (k ≥ 8 in Plonky2, k = 2 in
// Starky) and evaluated on the shifted coset of the larger subgroup, with
// bit-reversed output order. A fresh slice is returned.
func LDE(coeffs []field.Element, blowupBits int, shift field.Element) []field.Element {
	out := make([]field.Element, len(coeffs)<<blowupBits)
	copy(out, coeffs)
	parallel.Must(Transform(context.Background(), out, Spec{Shift: shift, OutBR: true}))
	return out
}
