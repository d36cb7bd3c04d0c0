package parallel

import "sync"

// Scratch recycles slices of T across calls: a proving server runs the
// same shapes proof after proof, so pooled per-proof buffers (LDE
// columns, fold layers, Merkle levels, batch-inversion prefixes) keep
// the steady state allocation-free. The zero value is ready to use and
// safe for concurrent callers; each Get checks out its own buffer.
type Scratch[T any] struct {
	pool sync.Pool
}

// Get returns a pooled buffer of exactly n elements, contents
// unspecified: every user overwrites or clears what it reads. Return it
// with Put once nothing still references it.
func (s *Scratch[T]) Get(n int) *[]T {
	p, _ := s.pool.Get().(*[]T)
	if p == nil {
		p = new([]T)
	}
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return p
}

// Put returns a buffer from Get to the pool.
func (s *Scratch[T]) Put(p *[]T) { s.pool.Put(p) }
