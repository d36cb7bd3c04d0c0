package field

import (
	"context"

	"unizk/internal/parallel"
)

// batchInvGrain is the chunk size for parallel batch inversion: large
// enough that the one real inversion per chunk (the only extra work
// chunking introduces) is amortized across thousands of multiplications.
const batchInvGrain = 1 << 11

// BatchInverseCtx is BatchInverse fanned across the worker pool: each
// chunk runs the Montgomery trick on its own subslice. A field inverse is
// unique, so the chunked result is bit-identical to the serial one — only
// the count of true inversions changes (one per chunk instead of one
// total).
func BatchInverseCtx(ctx context.Context, xs []Element) error {
	if len(xs) < 2*batchInvGrain {
		BatchInverse(xs)
		return nil
	}
	return parallel.For(ctx, len(xs), batchInvGrain, func(lo, hi int) {
		BatchInverse(xs[lo:hi])
	})
}
