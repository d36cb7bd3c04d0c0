package trace

import (
	"sync"
	"testing"
	"time"
)

func TestNilRecorderRuns(t *testing.T) {
	var r *Recorder
	ran := false
	r.NTT(8, 1, false, false, false, func() { ran = true })
	if !ran {
		t.Fatal("nil recorder must still run the kernel")
	}
	if r.Nodes() != nil {
		t.Fatal("nil recorder must return nil nodes")
	}
}

func TestRecordsNodesAndTime(t *testing.T) {
	r := New()
	r.NTT(1024, 3, true, true, false, func() { time.Sleep(time.Millisecond) })
	r.Merkle(512, 8, func() {})
	r.Hashes(10, func() {})
	r.VecOp(2048, 2, 1, func() {})
	r.PartialProducts(4096, func() {})
	r.TransposeOp(100, func() {})

	nodes := r.Nodes()
	if len(nodes) != 6 {
		t.Fatalf("got %d nodes, want 6", len(nodes))
	}
	if nodes[0].Kind != NTT || nodes[0].Size != 1024 || nodes[0].Batch != 3 ||
		!nodes[0].Inverse || !nodes[0].Coset || nodes[0].BitRev {
		t.Fatalf("NTT node fields wrong: %+v", nodes[0])
	}
	if nodes[1].Kind != MerkleTree || nodes[1].Size != 512 || nodes[1].Batch != 8 {
		t.Fatalf("Merkle node fields wrong: %+v", nodes[1])
	}
	times := r.CPUTime()
	if times[NTT] < time.Millisecond {
		t.Fatalf("NTT time %v, want >= 1ms", times[NTT])
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.VecOp(10, 1, 1, func() {})
		}()
	}
	wg.Wait()
	if got := len(r.Nodes()); got != 50 {
		t.Fatalf("got %d nodes, want 50", got)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		NTT: "NTT", Hash: "OtherHash", MerkleTree: "MerkleTree",
		VecOp: "VecOp", PartialProd: "PartialProd", Transpose: "Transpose",
		Kind(99): "Unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}
