package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCoversEveryIndexOnce is the core property: for arbitrary (n,
// grain, workers), For visits every index in [0, n) exactly once.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 3, 7, 64, 100, 255, 256, 257, 1000, 4096} {
			for _, grain := range []int{-1, 0, 1, 2, 3, 16, 255, 10000} {
				seen := make([]int32, n)
				err := p.For(context.Background(), n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("workers=%d n=%d grain=%d: bad chunk [%d,%d)", workers, n, grain, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
				})
				if err != nil {
					t.Fatalf("workers=%d n=%d grain=%d: %v", workers, n, grain, err)
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times",
							workers, n, grain, i, c)
					}
				}
			}
		}
		p.Close()
	}
}

// TestForPreCancelled checks a cancelled context returns promptly without
// running any chunk.
func TestForPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Bool{}
	err := For(ctx, 1<<20, 1, func(lo, hi int) { ran.Store(true) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("chunk ran despite pre-cancelled context")
	}
}

// TestForCancelMidway checks cancellation between chunks stops the loop
// and surfaces ctx.Err().
func TestForCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var count atomic.Int64
	err := For(ctx, 1<<16, 16, func(lo, hi int) {
		if count.Add(1) == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c := count.Load(); c >= 1<<16/16 {
		t.Fatalf("all %d chunks ran despite cancellation", c)
	}
}

// TestForPanicPropagates checks a panic in a chunk is returned as a
// *PanicError without deadlocking the other workers.
func TestForPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		done := make(chan error, 1)
		go func() {
			done <- p.For(context.Background(), 1024, 4, func(lo, hi int) {
				if lo >= 512 {
					panic("boom")
				}
			})
		}()
		select {
		case err := <-done:
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
			}
			if pe.Value != "boom" {
				t.Fatalf("workers=%d: panic value = %v, want boom", workers, pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Fatalf("workers=%d: missing stack", workers)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: For deadlocked after panic", workers)
		}
		p.Close()
	}
}

// TestNestedFor checks an inner For issued from inside a worker chunk
// completes (the non-blocking handoff plus caller participation make this
// deadlock-free even when every worker is busy).
func TestNestedFor(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const outer, innerN = 64, 256
	sums := make([]int64, outer)
	err := p.For(context.Background(), outer, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var s atomic.Int64
			if e := p.For(context.Background(), innerN, 16, func(l, h int) {
				for j := l; j < h; j++ {
					s.Add(int64(j))
				}
			}); e != nil {
				t.Errorf("inner For: %v", e)
				return
			}
			sums[i] = s.Load()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(innerN * (innerN - 1) / 2)
	for i, s := range sums {
		if s != want {
			t.Fatalf("outer %d: sum = %d, want %d", i, s, want)
		}
	}
}

// TestSerialRunIsOneWorkerPool checks SetWorkers(1) — the differential
// tests' reference run — makes package-level For run every chunk on the
// calling goroutine, in order.
func TestSerialRunIsOneWorkerPool(t *testing.T) {
	prev := Workers()
	defer SetWorkers(prev)
	SetWorkers(1)
	var order []int
	err := For(context.Background(), 100, 7, func(lo, hi int) {
		order = append(order, lo) // safe: a one-worker pool is single-goroutine
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 15 {
		t.Fatalf("ran %d chunks, want 15", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatal("one-worker pool ran chunks out of order or concurrently")
		}
	}
}

// TestMust checks the legacy-wrapper adapter re-panics PanicError values
// and passes nil through.
func TestMust(t *testing.T) {
	Must(nil) // must not panic

	func() {
		defer func() {
			if r := recover(); r != "kernel bug" {
				t.Fatalf("recover() = %v, want kernel bug", r)
			}
		}()
		Must(&PanicError{Value: "kernel bug"})
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Must(ordinary error) did not panic")
			}
		}()
		Must(errors.New("other"))
	}()
}

// TestSetWorkers checks the default-pool swap and shared-pool memoization.
func TestSetWorkers(t *testing.T) {
	prev := Workers()
	defer SetWorkers(prev)

	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	p3 := Default()
	SetWorkers(5)
	SetWorkers(3)
	if Default() != p3 {
		t.Fatal("shared pool for workers=3 was not memoized")
	}
	SetWorkers(0)
	if Workers() != 1 {
		t.Fatalf("Workers() after SetWorkers(0) = %d, want 1", Workers())
	}
}

// TestPoolCloseIdempotent checks double-Close does not panic.
func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(4)
	p.Close()
	p.Close()
}

// TestForZeroAndNegativeN checks degenerate ranges are no-ops.
func TestForZeroAndNegativeN(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if err := For(context.Background(), n, 8, func(lo, hi int) {
			t.Fatalf("chunk ran for n=%d", n)
		}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestScratchGetLength checks that a checked-out buffer has exactly the
// requested length, whether the pool hands back a smaller, larger or no
// previous buffer.
func TestScratchGetLength(t *testing.T) {
	var s Scratch[int]
	for _, n := range []int{0, 5, 1, 64, 3} {
		p := s.Get(n)
		if len(*p) != n {
			t.Fatalf("Get(%d) has length %d", n, len(*p))
		}
		s.Put(p)
	}
}
