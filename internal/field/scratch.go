package field

import "sync"

// Pooled scratch for the batch-inversion kernel. Montgomery's trick
// needs an O(n) prefix-product array; pooling it keeps the steady-state
// prove loop allocation-free — the hotalloc analyzer enforces this
// statically on the annotated kernels, and internal/allocgate pins it
// at runtime with testing.AllocsPerRun. Buffers grow to the largest
// batch seen and are reused; the pool is safe for the concurrent
// chunked callers in parinv.go (each chunk checks out its own buffer).

var elemScratch = sync.Pool{New: func() any { s := make([]Element, 0, 1<<10); return &s }}

// elemScratchFor returns a pooled buffer with capacity ≥ n; return it
// with putElemScratch. Contents are unspecified.
func elemScratchFor(n int) *[]Element {
	p := elemScratch.Get().(*[]Element)
	if cap(*p) < n {
		*p = make([]Element, n)
	}
	return p
}

func putElemScratch(p *[]Element) { elemScratch.Put(p) }
