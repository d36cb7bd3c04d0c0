package jobs

import (
	"context"
	"runtime"
	"testing"
)

// TestResidentBytes checks the registry's accounting against the heap:
// ResidentBytes of a compiled job is within 25% of the live heap that
// Compile adds, measured after a GC on each side (two, so the pools'
// victim caches are empty and Compile allocates what it keeps).
func TestResidentBytes(t *testing.T) {
	for _, req := range []Request{
		{Kind: KindPlonk, Workload: "MVM", LogRows: 4},
		{Kind: KindPlonk, Workload: "MVM", LogRows: 8},
		{Kind: KindStark, Workload: "SHA-256", LogRows: 9},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		j, err := Compile(&req)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		got := j.ResidentBytes()
		runtime.KeepAlive(j)
		heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		t.Logf("%s %s 2^%d: ResidentBytes %d, heap delta %d", req.Kind, req.Workload, req.LogRows, got, heap)
		if lo, hi := heap*3/4, heap*5/4; got < lo || got > hi {
			t.Errorf("%s %s 2^%d: ResidentBytes %d outside ±25%% of the heap delta %d",
				req.Kind, req.Workload, req.LogRows, got, heap)
		}
	}
}

// TestResidentBytesAfterProving: a circuit compiled after a larger one
// has proved, which leaves larger buffers in the shared pools, weighs
// what a fresh compile does — its committed constants hold arrays of
// exactly their size, not whatever pooled buffer was large enough.
func TestResidentBytesAfterProving(t *testing.T) {
	small := &Request{Kind: KindPlonk, Workload: "MVM", LogRows: 4}
	weigh := func() int64 {
		j, err := Compile(small)
		if err != nil {
			t.Fatal(err)
		}
		return j.ResidentBytes()
	}
	runtime.GC()
	runtime.GC() // empties the pools: this compile is fresh
	fresh := weigh()
	if _, err := proveDirect(context.Background(), &Request{Kind: KindPlonk, Workload: "MVM", LogRows: 8}); err != nil {
		t.Fatal(err)
	}
	if got := weigh(); got != fresh {
		t.Fatalf("compiled after a 2^8 prove the 2^4 circuit weighs %d bytes, fresh %d", got, fresh)
	}
}
