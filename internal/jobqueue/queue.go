// Package jobqueue implements the bounded, backpressured job queue the
// proving service admits work through. It is the software analogue of
// UniZK's kernel scheduler front-end (paper §5): a stream of proof
// kernels contends for fixed hardware, so admission is bounded and the
// excess is refused early — Push fails fast with ErrFull instead of
// buffering unboundedly, and the HTTP layer converts that into 429 +
// Retry-After.
//
// Ordering is priority-then-FIFO: higher priority pops first, and items
// of equal priority pop in submission order (a strict FIFO is the
// single-priority special case). Pop blocks until an item, context
// cancellation, or Close; Close atomically stops admission and hands
// back everything still queued so the caller can reject each item with
// a retryable error during drain.
package jobqueue

import (
	"container/heap"
	"context"
	"errors"
	"sync"
)

// ErrFull is returned by Push when the queue is at capacity — the
// backpressure signal. It is retryable: the queue drains as the
// scheduler pops.
var ErrFull = errors.New("jobqueue: queue full")

// ErrClosed is returned by Push after Close, and by Pop once the queue
// is closed and empty.
var ErrClosed = errors.New("jobqueue: queue closed")

// entry is one queued item with its ordering keys.
type entry[T any] struct {
	value T
	pri   int
	seq   uint64
}

// entryHeap orders by descending priority, then ascending sequence
// (FIFO within a priority).
type entryHeap[T any] []entry[T]

func (h entryHeap[T]) Len() int { return len(h) }
func (h entryHeap[T]) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri > h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap[T]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *entryHeap[T]) Push(x any) { *h = append(*h, x.(entry[T])) }

func (h *entryHeap[T]) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	var zero entry[T]
	old[n-1] = zero
	*h = old[:n-1]
	return e
}

// Stats is a point-in-time observability snapshot of a queue.
type Stats struct {
	// Len and Cap are the current depth and the fixed capacity.
	Len, Cap int
	// HighWater is the deepest the queue has ever been — how close the
	// service has come to backpressure even if no push was ever refused.
	HighWater int
	// RejectedFull and RejectedClosed count every push refused with
	// ErrFull (backpressure) and ErrClosed (after drain) respectively.
	RejectedFull, RejectedClosed int64
}

// Queue is a bounded priority/FIFO queue. The zero value is not usable;
// construct with New.
//
// Semantics after Close are pinned (and tested) as:
//
//   - Push returns ErrClosed, never ErrFull, and never enqueues — even
//     if the queue was full when it closed.
//   - Pop returns ErrClosed immediately. Close itself drains every
//     queued item, so a closed queue is always empty, and ErrClosed
//     takes precedence over the caller's context: Pop on a closed queue
//     reports ErrClosed even if ctx is already canceled. (While the
//     queue is open, a canceled ctx wins over blocking.)
//   - Close is idempotent: the first call returns the drained items in
//     pop order, every later call returns nil.
type Queue[T any] struct {
	mu sync.Mutex
	//unizklint:guardedby mu
	items entryHeap[T]
	cap   int
	//unizklint:guardedby mu
	seq uint64
	//unizklint:guardedby mu
	closed bool
	//unizklint:guardedby mu
	highWater int
	//unizklint:guardedby mu
	rejFull int64
	//unizklint:guardedby mu
	rejClosed int64

	// notify carries at most one wakeup token; pushes post to it
	// non-blockingly and poppers re-post when items remain, so any
	// number of blocked Pops drain the queue without thundering herds.
	notify chan struct{}
	// closedCh is closed by Close to wake every blocked Pop at once.
	closedCh chan struct{}
}

// New returns a queue holding at most capacity items (minimum 1).
func New[T any](capacity int) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue[T]{
		cap:      capacity,
		notify:   make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Stats returns the queue's observability counters. The high-water mark
// and rejection counts survive Close, so a drained service can still
// report how hard it was pushed.
func (q *Queue[T]) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Len:            len(q.items),
		Cap:            q.cap,
		HighWater:      q.highWater,
		RejectedFull:   q.rejFull,
		RejectedClosed: q.rejClosed,
	}
}

// Push enqueues v at the given priority. It never blocks: a full queue
// returns ErrFull immediately (backpressure), a closed queue ErrClosed.
func (q *Queue[T]) Push(v T, priority int) error {
	q.mu.Lock()
	if q.closed {
		q.rejClosed++
		q.mu.Unlock()
		return ErrClosed
	}
	if len(q.items) >= q.cap {
		q.rejFull++
		q.mu.Unlock()
		return ErrFull
	}
	heap.Push(&q.items, entry[T]{value: v, pri: priority, seq: q.seq})
	q.seq++
	if len(q.items) > q.highWater {
		q.highWater = len(q.items)
	}
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
	return nil
}

// Pop dequeues the highest-priority (then oldest) item, blocking until
// one is available. It returns ctx.Err() if the context is done first,
// or ErrClosed once the queue is closed (Close drains queued items
// itself, so a closed queue is always empty).
func (q *Queue[T]) Pop(ctx context.Context) (T, error) {
	var zero T
	for {
		q.mu.Lock()
		if len(q.items) > 0 {
			e := heap.Pop(&q.items).(entry[T])
			remaining := len(q.items)
			q.mu.Unlock()
			if remaining > 0 {
				// Hand the wakeup token to the next waiter.
				select {
				case q.notify <- struct{}{}:
				default:
				}
			}
			return e.value, nil
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return zero, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		select {
		case <-ctx.Done():
			return zero, ctx.Err()
		case <-q.notify:
		case <-q.closedCh:
		}
	}
}

// Close stops admission and returns everything still queued, in pop
// order, so the caller can reject each item. Blocked Pops return
// ErrClosed. Close is idempotent; later calls return nil.
func (q *Queue[T]) Close() []T {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	var drained []T
	for len(q.items) > 0 {
		drained = append(drained, heap.Pop(&q.items).(entry[T]).value)
	}
	q.mu.Unlock()
	close(q.closedCh)
	return drained
}
