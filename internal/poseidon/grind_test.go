package poseidon

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"unizk/internal/field"
	"unizk/internal/parallel"
)

// cloneChallenger is the reference grind's transcript fork.
func cloneChallenger(c *Challenger) *Challenger {
	return &Challenger{
		state:     c.state,
		inputBuf:  append([]field.Element(nil), c.inputBuf...),
		outputBuf: append([]field.Element(nil), c.outputBuf...),
	}
}

// referenceGrind is the serial proof-of-work loop the FRI prover ran
// before Grind: fork the transcript, observe the candidate, sample.
func referenceGrind(c *Challenger, bits int) (witness field.Element, tries int) {
	for wv := uint64(0); ; wv++ {
		tries++
		c2 := cloneChallenger(c)
		c2.Observe(field.New(wv))
		if c2.SampleBits(bits) == 0 {
			return field.New(wv), tries
		}
	}
}

// grindTranscript builds a seeded transcript that leaves exactly pending
// inputs unabsorbed. Even seeds reach it through a Sample (which empties
// the input buffer and leaves squeezed outputs behind), odd seeds through
// observations alone.
func grindTranscript(seed int64, pending int) *Challenger {
	rng := rand.New(rand.NewSource(seed))
	c := NewChallenger()
	n := rng.Intn(3) * Rate
	if seed%2 == 0 {
		for i := rng.Intn(20); i > 0; i-- {
			c.Observe(field.New(rng.Uint64()))
		}
		c.Sample()
		n = 0
	}
	for i := 0; i < n+pending; i++ {
		c.Observe(field.New(rng.Uint64()))
	}
	return c
}

// grindMode is one scheduling of the block search.
type grindMode struct {
	name    string
	workers int
}

func grindModes() []grindMode {
	return []grindMode{
		{"workers=1", 1},
		{"workers=2", 2},
		{"workers=7", 7},
		{"workers=NumCPU", runtime.NumCPU()},
	}
}

// withMode runs fn under mode, restoring the pool afterwards.
func withMode(m grindMode, fn func()) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	parallel.SetWorkers(m.workers)
	fn()
}

// checkGrind compares Grind with the reference loop on the transcript
// newC builds, under each mode: the witness, the serial-equivalent tries,
// and the transcript after observing the witness. It returns the witness.
func checkGrind(t *testing.T, newC func() *Challenger, bits int, modes ...grindMode) uint64 {
	t.Helper()
	ref := newC()
	want, wantTries := referenceGrind(ref, bits)
	ref.Observe(want)
	ref.SampleBits(bits)
	next := ref.Sample()

	for _, m := range modes {
		c := newC()
		var got field.Element
		var tries int
		var err error
		withMode(m, func() { got, tries, err = c.Grind(context.Background(), bits) })
		if err != nil {
			t.Fatalf("%s bits=%d: %v", m.name, bits, err)
		}
		if got != want || tries != wantTries {
			t.Fatalf("%s bits=%d L=%d: Grind = (%d, %d tries), serial loop = (%d, %d tries)",
				m.name, bits, len(c.inputBuf), got, tries, want, wantTries)
		}
		c.Observe(got)
		if c.SampleBits(bits) != 0 {
			t.Fatalf("%s bits=%d: witness does not satisfy the check", m.name, bits)
		}
		if c.Sample() != next {
			t.Fatalf("%s bits=%d: transcript after the grind diverged", m.name, bits)
		}
	}
	return uint64(want)
}

// TestGrindMatchesSerialLoop is the differential test of the block
// search: 200 seeded transcripts over every pending-input count 0..7,
// widths {0, 1, 4, 8, 12}, and every scheduling, each (width,
// scheduling) pair seen eight times. At 12 bits the block is 4096
// candidates, so about a third of those cases hit past the first block.
func TestGrindMatchesSerialLoop(t *testing.T) {
	widths := []int{0, 1, 4, 8, 12}
	modes := grindModes()
	crossed := 0
	for i := 0; i < 200; i++ {
		bits := widths[i%len(widths)]
		m := modes[(i/len(widths))%len(modes)]
		newC := func() *Challenger { return grindTranscript(int64(i), i%Rate) }
		if w := checkGrind(t, newC, bits, m); w >= grindSubBlocks*grindSubBlockSize(bits) {
			crossed++
		}
	}
	if crossed == 0 {
		t.Fatal("no transcript hit past the first block")
	}
}

// TestGrindSubBlockEdges pins transcripts whose 8-bit witness is the
// first or the last candidate of a 64-candidate sub-block, sits at each
// of the eight positions of a batched permutation call, or falls in the
// last batch of a sub-block, under every scheduling, and two 16-bit
// grinds, the production width.
func TestGrindSubBlockEdges(t *testing.T) {
	if size := grindSubBlockSize(8); size != 64 {
		t.Fatalf("8-bit sub-block size %d, the pinned seeds assume 64", size)
	}
	for _, tc := range []struct {
		seed    int64
		pending int
		witness uint64
	}{
		{seed: 8, pending: 0, witness: 0},     // first of sub-block 0
		{seed: 96, pending: 0, witness: 63},   // last of sub-block 0
		{seed: 246, pending: 6, witness: 64},  // first of sub-block 1
		{seed: 144, pending: 0, witness: 128}, // first of sub-block 2
		{seed: 391, pending: 7, witness: 191}, // last of sub-block 2
		{seed: 146, pending: 2, witness: 831}, // last of sub-block 12
		{seed: 16, pending: 0, witness: 273},  // batch position 1
		{seed: 0, pending: 0, witness: 162},   // batch position 2
		{seed: 6, pending: 6, witness: 299},   // batch position 3
		{seed: 3, pending: 3, witness: 44},    // batch position 4
		{seed: 9, pending: 1, witness: 13},    // batch position 5
		{seed: 26, pending: 2, witness: 230},  // batch position 6
		{seed: 7, pending: 7, witness: 444},   // position 4 of the last batch of sub-block 6
	} {
		newC := func() *Challenger { return grindTranscript(tc.seed, tc.pending) }
		if w := checkGrind(t, newC, 8, grindModes()...); w != tc.witness {
			t.Fatalf("seed %d: witness %d, pinned %d", tc.seed, w, tc.witness)
		}
	}
	modes := grindModes()
	for _, pending := range []int{0, Rate - 1} {
		newC := func() *Challenger { return grindTranscript(int64(pending), pending) }
		checkGrind(t, newC, 16, modes[0], modes[len(modes)-1])
	}
}

// TestGrindCancel checks a grind that cannot finish (40 bits) returns
// the context's error within a sub-block of the deadline and leaves no
// goroutine behind.
func TestGrindCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := grindTranscript(3, 5).Grind(ctx, 40)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Grind under a deadline: err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Grind returned %v after a 20ms deadline", elapsed)
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func BenchmarkGrind12(b *testing.B) {
	c := grindTranscript(1, 3)
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Grind(context.Background(), 12); err != nil {
			b.Fatal(err)
		}
	}
}
