// Package ntt implements number theoretic transforms over the Goldilocks
// field: forward and inverse transforms, natural- and bit-reversed-order
// variants (NN, NR, RN), coset transforms, low degree extension, and the
// SAM-style multi-dimensional decomposition that UniZK's hardware mapping
// relies on (paper §5.1).
//
// Order naming follows the paper: the first letter is the input order and
// the second the output order; N = natural, R = bit-reversed. For example
// ForwardNR consumes coefficients in natural order and produces evaluations
// in bit-reversed order, which is the variant FRI's low degree extension
// uses (paper Fig. 1, step 2).
package ntt

import (
	"context"
	"math/bits"

	"unizk/internal/field"
	"unizk/internal/parallel"
)

// tableFor returns the cached twiddle half-table for the requested
// direction; see cache.go for the bounded cache the tables live in.
func tableFor(logN int, inverse bool) []field.Element {
	if inverse {
		return invRootTable(logN)
	}
	return rootTable(logN)
}

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
// the MDC pipeline (paper Fig. 4a). roots must be the (inverse) root table
// of size len(data)/2.
//
//unizklint:hotpath
func difCore(data []field.Element, roots []field.Element) {
	n := len(data)
	for half := n / 2; half >= 1; half >>= 1 {
		step := n / (2 * half) // twiddle stride into the size-n table
		for start := 0; start < n; start += 2 * half {
			difButterflies(data, roots, start, 0, half, half, step)
		}
	}
}

// difCoreCtx is difCore with the early (long-span) butterfly layers
// fanned across the worker pool and the trailing layers cache-blocked:
// once spans fit a cache block, each block is an independent smaller DIF
// transform over the canonical table of the block size, run serially
// while the block stays cache-resident, with blocks fanned across the
// pool. Butterflies within a layer touch disjoint index pairs and blocks
// are disjoint slices, so the result is bit-identical to the serial
// core; layers are separated by the For barrier, preserving the
// layer-order data dependence.
func difCoreCtx(ctx context.Context, data []field.Element, inverse bool) error {
	n := len(data)
	if n < parallelMin {
		if err := ctx.Err(); err != nil {
			return err
		}
		difCore(data, tableFor(Log2(n), inverse))
		return nil
	}
	roots := tableFor(Log2(n), inverse)
	bs := blockElems(n)
	for half := n / 2; 2*half > bs; half >>= 1 {
		step := n / (2 * half)
		h := half
		err := parallel.For(ctx, n/2, butterflyGrain, func(lo, hi int) {
			forButterflySpans(lo, hi, h, func(block, j0, j1 int) {
				difButterflies(data, roots, block*2*h, j0, j1, h, step)
			})
		})
		if err != nil {
			return err
		}
	}
	sub := tableFor(Log2(bs), inverse)
	return parallel.For(ctx, n/bs, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			difCore(data[b*bs:(b+1)*bs], sub)
		}
	})
}

// difButterflies applies DIF butterflies j in [j0, j1) of the block at
// base: the pair (base+j, base+j+half) with twiddle roots[j*step].
//
//unizklint:hotpath
func difButterflies(data, roots []field.Element, base, j0, j1, half, step int) {
	for j := j0; j < j1; j++ {
		a := data[base+j]
		b := data[base+j+half]
		data[base+j] = field.Add(a, b)
		data[base+j+half] = field.Mul(field.Sub(a, b), roots[j*step])
	}
}

// ditCore runs decimation-in-time butterflies in place: bit-reversed-order
// input, natural-order output.
//
//unizklint:hotpath
func ditCore(data []field.Element, roots []field.Element) {
	n := len(data)
	for half := 1; half < n; half <<= 1 {
		step := n / (2 * half)
		for start := 0; start < n; start += 2 * half {
			ditButterflies(data, roots, start, 0, half, half, step)
		}
	}
}

// ditCoreCtx is ditCore with cache-blocked leading layers (DIT runs its
// short spans first, so the block pass leads and the pool-parallel long
// layers follow from half = block size); see difCoreCtx.
func ditCoreCtx(ctx context.Context, data []field.Element, inverse bool) error {
	n := len(data)
	if n < parallelMin {
		if err := ctx.Err(); err != nil {
			return err
		}
		ditCore(data, tableFor(Log2(n), inverse))
		return nil
	}
	bs := blockElems(n)
	sub := tableFor(Log2(bs), inverse)
	err := parallel.For(ctx, n/bs, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			ditCore(data[b*bs:(b+1)*bs], sub)
		}
	})
	if err != nil {
		return err
	}
	roots := tableFor(Log2(n), inverse)
	for half := bs; half < n; half <<= 1 {
		step := n / (2 * half)
		h := half
		err := parallel.For(ctx, n/2, butterflyGrain, func(lo, hi int) {
			forButterflySpans(lo, hi, h, func(block, j0, j1 int) {
				ditButterflies(data, roots, block*2*h, j0, j1, h, step)
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ditButterflies applies DIT butterflies j in [j0, j1) of the block at
// base.
//
//unizklint:hotpath
func ditButterflies(data, roots []field.Element, base, j0, j1, half, step int) {
	for j := j0; j < j1; j++ {
		a := data[base+j]
		b := field.Mul(data[base+j+half], roots[j*step])
		data[base+j] = field.Add(a, b)
		data[base+j+half] = field.Sub(a, b)
	}
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

// ForwardNR transforms coefficients (natural order) to evaluations in
// bit-reversed order, in place.
func ForwardNR(data []field.Element) {
	parallel.Must(ForwardNRCtx(context.Background(), data))
}

// ForwardNRCtx is ForwardNR with pool-parallel butterfly layers and
// cooperative cancellation. On a non-nil error the data is partially
// transformed and must be discarded.
func ForwardNRCtx(ctx context.Context, data []field.Element) error {
	return difCoreCtx(ctx, data, false)
}

// ForwardNN transforms coefficients to evaluations, both in natural order.
func ForwardNN(data []field.Element) {
	parallel.Must(ForwardNNCtx(context.Background(), data))
}

// ForwardNNCtx is ForwardNN with parallel butterflies and cancellation.
func ForwardNNCtx(ctx context.Context, data []field.Element) error {
	if err := ForwardNRCtx(ctx, data); err != nil {
		return err
	}
	BitReversePermute(data)
	return nil
}

// ForwardRN transforms coefficients given in bit-reversed order to
// evaluations in natural order.
func ForwardRN(data []field.Element) {
	parallel.Must(ditCoreCtx(context.Background(), data, false))
}

// InverseNN transforms evaluations to coefficients, both in natural order.
// This is the iNTT^NN used by FRI step 1 (paper Fig. 1).
func InverseNN(data []field.Element) {
	parallel.Must(InverseNNCtx(context.Background(), data))
}

// InverseNNCtx is InverseNN with parallel butterflies and cancellation.
func InverseNNCtx(ctx context.Context, data []field.Element) error {
	if err := InverseNRCtx(ctx, data); err != nil {
		return err
	}
	BitReversePermute(data)
	return nil
}

// InverseNR transforms natural-order evaluations to bit-reversed-order
// coefficients.
func InverseNR(data []field.Element) {
	parallel.Must(InverseNRCtx(context.Background(), data))
}

// InverseNRCtx is InverseNR with parallel butterflies and cancellation.
func InverseNRCtx(ctx context.Context, data []field.Element) error {
	n := len(data)
	if err := difCoreCtx(ctx, data, true); err != nil {
		return err
	}
	return scaleCtx(ctx, data, field.Inverse(field.New(uint64(n))))
}

// InverseRN transforms bit-reversed-order evaluations to natural-order
// coefficients.
func InverseRN(data []field.Element) {
	n := len(data)
	parallel.Must(ditCoreCtx(context.Background(), data, true))
	scale(data, field.Inverse(field.New(uint64(n))))
}

//unizklint:hotpath
func scale(data []field.Element, c field.Element) {
	for i := range data {
		data[i] = field.Mul(data[i], c)
	}
}

// scaleCtx is scale fanned across the pool; each chunk owns a disjoint
// index range.
func scaleCtx(ctx context.Context, data []field.Element, c field.Element) error {
	if len(data) < parallelMin {
		scale(data, c)
		return nil
	}
	return parallel.For(ctx, len(data), 1<<10, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i] = field.Mul(data[i], c)
		}
	})
}

// CosetForwardNR evaluates the polynomial on the coset shift·H (H the
// size-n subgroup), output bit-reversed: scale coefficient i by shift^i,
// then transform. The paper maps the pre-scaling onto the idle
// inter-dimension twiddle PE of the first DIT round (§5.1, "NTT variants").
func CosetForwardNR(data []field.Element, shift field.Element) {
	parallel.Must(CosetForwardNRCtx(context.Background(), data, shift))
}

// CosetForwardNRCtx is CosetForwardNR with parallel butterflies and
// cancellation.
func CosetForwardNRCtx(ctx context.Context, data []field.Element, shift field.Element) error {
	if err := scaleByPowersCtx(ctx, data, shift); err != nil {
		return err
	}
	return ForwardNRCtx(ctx, data)
}

// CosetForwardNN is CosetForwardNR with natural-order output.
func CosetForwardNN(data []field.Element, shift field.Element) {
	parallel.Must(CosetForwardNNCtx(context.Background(), data, shift))
}

// CosetForwardNNCtx is CosetForwardNN with parallel butterflies and
// cancellation.
func CosetForwardNNCtx(ctx context.Context, data []field.Element, shift field.Element) error {
	if err := scaleByPowersCtx(ctx, data, shift); err != nil {
		return err
	}
	return ForwardNNCtx(ctx, data)
}

// CosetInverseNN interpolates values on the coset shift·H back to
// coefficients; the trailing shift^-i scaling is what the paper folds into
// the last pipeline stage ("the last two PEs multiply with N^-1 g^-i").
func CosetInverseNN(data []field.Element, shift field.Element) {
	parallel.Must(CosetInverseNNCtx(context.Background(), data, shift))
}

// CosetInverseNNCtx is CosetInverseNN with parallel butterflies and
// cancellation.
func CosetInverseNNCtx(ctx context.Context, data []field.Element, shift field.Element) error {
	if err := InverseNNCtx(ctx, data); err != nil {
		return err
	}
	return scaleByPowersCtx(ctx, data, field.Inverse(shift))
}

//unizklint:hotpath
func scaleByTable(data, table []field.Element) {
	for i := range data {
		data[i] = field.Mul(data[i], table[i])
	}
}

// scaleByPowersCtx multiplies data[i] by c^i using the cached power
// table for c: one multiply per element instead of two, and repeated
// cosets (every LDE in a proof uses the same shift) reuse the table
// across jobs for free. The table is built by the same serial power walk
// the in-line accumulation used, so results are bit-identical.
func scaleByPowersCtx(ctx context.Context, data []field.Element, c field.Element) error {
	table := powerTable(c, Log2(len(data)))
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

// LDE performs the low degree extension of FRI step 2: the coefficient
// vector is zero-padded by the blowup factor (k ≥ 8 in Plonky2, k = 2 in
// Starky) and evaluated on the shifted coset of the larger subgroup, with
// bit-reversed output order (NTT^NR). A fresh slice is returned.
func LDE(coeffs []field.Element, blowupBits int, shift field.Element) []field.Element {
	out, err := LDECtx(context.Background(), coeffs, blowupBits, shift)
	parallel.Must(err)
	return out
}

// LDECtx is LDE with parallel butterflies and cancellation.
func LDECtx(ctx context.Context, coeffs []field.Element, blowupBits int, shift field.Element) ([]field.Element, error) {
	n := len(coeffs)
	out := make([]field.Element, n<<blowupBits)
	copy(out, coeffs)
	if err := CosetForwardNRCtx(ctx, out, shift); err != nil {
		return nil, err
	}
	return out, nil
}

// LDEIntoCtx is LDECtx writing into a caller-provided buffer whose
// length (a power of two ≥ len(coeffs)) fixes the blowup. Callers feed
// pooled buffers, so the padding region is cleared explicitly — pooled
// memory is dirty where a fresh make is zero.
func LDEIntoCtx(ctx context.Context, dst, coeffs []field.Element, shift field.Element) error {
	if len(dst) < len(coeffs) {
		panic("ntt: LDE destination shorter than coefficients")
	}
	n := copy(dst, coeffs)
	clear(dst[n:])
	return CosetForwardNRCtx(ctx, dst, shift)
}

// PolyMulNTT multiplies two coefficient vectors via NTT, returning a
// product of length len(a)+len(b)-1 (trailing zeros trimmed to that size).
func PolyMulNTT(a, b []field.Element) []field.Element {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	outLen := len(a) + len(b) - 1
	n := 1
	for n < outLen {
		n <<= 1
	}
	fa := make([]field.Element, n)
	fb := make([]field.Element, n)
	copy(fa, a)
	copy(fb, b)
	ForwardNR(fa)
	ForwardNR(fb)
	for i := range fa {
		fa[i] = field.Mul(fa[i], fb[i])
	}
	InverseRN(fa)
	return fa[:outLen]
}
