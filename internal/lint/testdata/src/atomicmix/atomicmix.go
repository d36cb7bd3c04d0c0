// Fixture for the atomicmix analyzer.
package atomicmix

import "sync/atomic"

type stats struct {
	hits int64
	ptr  atomic.Pointer[int]
}

func (s *stats) bump() {
	atomic.AddInt64(&s.hits, 1) // want `sync/atomic.AddInt64 acts on a plain variable`
}

func (s *stats) load() int64 {
	return atomic.LoadInt64(&s.hits) // want `sync/atomic.LoadInt64`
}

func (s *stats) claim(flag *uint32) bool {
	return atomic.CompareAndSwapUint32(flag, 0, 1) // want `sync/atomic.CompareAndSwapUint32`
}

// A function value escapes the call-site view just as well.
var add = atomic.AddUint64 // want `sync/atomic.AddUint64`

// The typed wrappers make mixing unwritable; nothing to flag.
type typed struct {
	n atomic.Int64
}

func (t *typed) fine() int64 {
	t.n.Add(1)
	return t.n.Load()
}

func (s *stats) fine(v *int) *int {
	s.ptr.Store(v)
	return s.ptr.Load()
}

func (s *stats) allowedSnapshot() int64 {
	//unizklint:allow atomicmix(fixture for the directive path: reads a counter no goroutine writes)
	return atomic.LoadInt64(&s.hits)
}
