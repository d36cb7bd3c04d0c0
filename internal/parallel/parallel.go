// Package parallel is the shared worker pool behind every data-parallel
// prover kernel: NTT butterfly layers, Poseidon leaf hashing and Merkle
// level compression, FRI folding and batched opening, and the coset
// quotient evaluations of the Plonk and Stark provers. It is the software
// analogue of fanning a kernel across UniZK's vector systolic array
// (paper §5): the hardware exploits the fact that butterflies within a
// layer, hashes within a tree level, and per-point vector operations are
// independent, and the pool exploits exactly the same independence across
// CPU cores.
//
// Determinism contract: For splits [0,n) into fixed-size chunks computed
// only from (n, grain) — never from the worker count — and callers write
// results to disjoint index ranges. Because no output depends on which
// worker ran which chunk or in what order, every parallel kernel is
// bit-identical to its serial execution, which keeps Fiat–Shamir
// transcripts stable. The differential test layer
// (internal/*/parallel_test.go) enforces this across worker counts.
//
// Cancellation contract: For polls its context between chunks and returns
// ctx.Err() promptly, so ProveContext-style cancellation propagates into
// every parallel loop. A panic inside a chunk is captured and returned as
// a *PanicError instead of crashing a worker goroutine or deadlocking the
// waiters.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic recovered from a worker chunk. For returns it
// so the calling goroutine decides whether to re-panic (prover internals
// treat kernel panics as bugs) or classify it (verifier boundaries).
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the worker's stack at the point of the panic.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: panic in worker: %v\n%s", e.Value, e.Stack)
}

// Pool is a reusable set of worker goroutines. The zero value is not
// usable; construct with NewPool. Workers are spawned once and parked on
// a channel, so repeated For calls (one per NTT layer, per Merkle level,
// …) do not churn goroutines.
type Pool struct {
	workers int
	jobs    chan func()
	closed  atomic.Bool
}

// NewPool returns a pool that runs For bodies on up to workers
// goroutines. The calling goroutine always participates, so workers-1
// helper goroutines are spawned; a 1-worker pool runs everything inline.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, jobs: make(chan func())}
	for i := 0; i < workers-1; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Close releases the pool's helper goroutines. The pool must not be used
// after Close; the shared pools managed by SetWorkers are never closed.
func (p *Pool) Close() {
	if !p.closed.Swap(true) {
		close(p.jobs)
	}
}

// worker parks on the job channel and runs whatever chunk claimers For
// hands it. The range loop exits when the pool is closed.
func (p *Pool) worker() {
	for job := range p.jobs {
		job()
	}
}

// For runs fn(lo, hi) over disjoint subranges covering [0, n), using up
// to the pool's workers. grain is the chunk size; grain <= 0 selects a
// default that depends only on n, keeping chunk boundaries — and
// therefore any per-chunk numerical structure — independent of the
// worker count. fn must write only to indexes in [lo, hi) of any shared
// output; under that contract the result is bit-identical to fn(0, n).
//
// For returns nil on completion, ctx.Err() if the context is cancelled
// before every chunk has run (some chunks may then never execute), or a
// *PanicError wrapping the first panic raised by fn. It never deadlocks:
// helpers are recruited with a non-blocking handoff, and the caller
// itself claims chunks, so nested For calls from inside a worker make
// progress even when every other worker is busy.
func (p *Pool) For(ctx context.Context, n, grain int, fn func(lo, hi int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if grain <= 0 {
		grain = defaultGrain(n)
	}
	chunks := (n + grain - 1) / grain

	if chunks == 1 || p.workers == 1 || SerialMode() {
		for c := 0; c < chunks; c++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			if pe := runChunk(lo, hi, fn); pe != nil {
				return pe
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		panicked atomic.Pointer[PanicError]
	)
	claim := func() {
		for {
			if stop.Load() {
				return
			}
			if ctx.Err() != nil {
				stop.Store(true)
				return
			}
			c := next.Add(1) - 1
			if c >= int64(chunks) {
				return
			}
			lo := int(c) * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			if pe := runChunk(lo, hi, fn); pe != nil {
				panicked.CompareAndSwap(nil, pe)
				stop.Store(true)
				return
			}
		}
	}

	// Recruit helpers with a non-blocking handoff: a helper is only
	// engaged if a pool worker is parked and ready, otherwise the caller
	// absorbs that share of the chunks. This is what makes nested For
	// calls deadlock-free.
	var wg sync.WaitGroup
	helpers := p.workers - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	for i := 0; i < helpers; i++ {
		wg.Add(1)
		handed := false
		select {
		case p.jobs <- func() { defer wg.Done(); claim() }:
			handed = true
		default:
		}
		if !handed {
			wg.Done()
		}
	}
	claim()
	wg.Wait()

	if pe := panicked.Load(); pe != nil {
		return pe
	}
	if stop.Load() {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// runChunk executes one chunk, converting a panic into a *PanicError.
func runChunk(lo, hi int, fn func(lo, hi int)) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	fn(lo, hi)
	return nil
}

// defaultGrain bounds a For call to at most 256 chunks. It is a function
// of n only — see the determinism contract in the package comment.
func defaultGrain(n int) int {
	g := (n + 255) / 256
	if g < 1 {
		g = 1
	}
	return g
}

// serialMode, when set, forces every For call onto the calling goroutine
// regardless of pool size — the differential test layer's reference
// execution.
var serialMode atomic.Bool

// SetSerial switches the package between serial and parallel execution.
// It is a test/debug knob: toggling it while a prover is running is safe
// (each For call reads it once) but pointless.
func SetSerial(on bool) { serialMode.Store(on) }

// SerialMode reports whether serial execution is forced.
func SerialMode() bool { return serialMode.Load() }

// sharedPools memoizes one pool per worker count, so test sweeps over
// worker counts reuse goroutines instead of leaking them.
var (
	sharedMu    sync.Mutex
	sharedPools = map[int]*Pool{}
)

func sharedPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	p, ok := sharedPools[workers]
	if !ok {
		p = NewPool(workers)
		sharedPools[workers] = p
	}
	return p
}

// defaultPool is the pool package-level For uses: GOMAXPROCS-sized by
// default, swappable for differential testing via SetWorkers.
var defaultPool atomic.Pointer[Pool]

func init() {
	defaultPool.Store(sharedPool(runtime.GOMAXPROCS(0)))
}

// Default returns the pool package-level For dispatches to.
func Default() *Pool { return defaultPool.Load() }

// Workers returns the default pool's concurrency bound.
func Workers() int { return Default().Workers() }

// SetWorkers replaces the default pool with a shared pool of the given
// size. It is a test knob (the differential layer sweeps {1, 2, 7,
// NumCPU}); swapping while a prover is mid-flight is not meaningful.
func SetWorkers(n int) { defaultPool.Store(sharedPool(n)) }

// For runs fn over [0, n) on the default pool. See Pool.For.
func For(ctx context.Context, n, grain int, fn func(lo, hi int)) error {
	return Default().For(ctx, n, grain, fn)
}

// Must re-panics a *PanicError and panics on any other non-nil error.
// It is the adapter for context-free entry points (ntt.ForwardNN,
// merkle.Build, …) whose For calls run under context.Background() and
// therefore can only fail by panic.
func Must(err error) {
	if err == nil {
		return
	}
	if pe, ok := err.(*PanicError); ok {
		panic(pe.Value)
	}
	panic(err)
}
