package jobs

import (
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
