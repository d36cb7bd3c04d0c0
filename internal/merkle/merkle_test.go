package merkle

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"unizk/internal/field"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/poseidon"
)

func randLeaves(rng *rand.Rand, n, width int) [][]field.Element {
	leaves := make([][]field.Element, n)
	for i := range leaves {
		leaves[i] = make([]field.Element, width)
		for j := range leaves[i] {
			leaves[i][j] = field.New(rng.Uint64())
		}
	}
	return leaves
}

func TestBuildAndVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, width, capH int }{
		{2, 1, 0},
		{8, 4, 0},
		{64, 7, 0},
		{64, 7, 2},
		{16, 135, 1}, // wide leaves exercise multi-block absorption (§5.3)
		{4, 4, 2},    // cap == leaf digests
	} {
		leaves := randLeaves(rng, tc.n, tc.width)
		tree := Build(leaves, tc.capH)
		c := tree.Cap()
		if len(c) != 1<<tc.capH {
			t.Fatalf("cap size %d, want %d", len(c), 1<<tc.capH)
		}
		for i := 0; i < tc.n; i++ {
			if err := Verify(leaves[i], i, tree.Open(i), c); err != nil {
				t.Fatalf("n=%d capH=%d: valid proof rejected for leaf %d: %v",
					tc.n, tc.capH, i, err)
			}
		}
	}
}

func TestVerifyRejectsTamperedLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	leaves := randLeaves(rng, 32, 5)
	tree := Build(leaves, 0)
	c := tree.Cap()
	data, proof := leaves[7], tree.Open(7)
	bad := append([]field.Element(nil), data...)
	bad[2] = field.Add(bad[2], field.One)
	if Verify(bad, 7, proof, c) == nil {
		t.Fatal("tampered leaf accepted")
	}
}

func TestVerifyRejectsWrongIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	leaves := randLeaves(rng, 32, 5)
	tree := Build(leaves, 0)
	c := tree.Cap()
	data, proof := leaves[7], tree.Open(7)
	for _, index := range []int{8, -1, -8, math.MinInt} {
		if Verify(data, index, proof, c) == nil {
			t.Fatalf("wrong index %d accepted", index)
		}
	}
}

// scalarLevels is the reference tree: every leaf and node hashed one at
// a time with the scalar HashOrNoop and TwoToOne.
func scalarLevels(leaves [][]field.Element, capHeight int) [][]poseidon.HashOut {
	level := make([]poseidon.HashOut, len(leaves))
	for i, l := range leaves {
		level[i] = poseidon.HashOrNoop(l)
	}
	levels := [][]poseidon.HashOut{level}
	for len(level) > 1<<capHeight {
		next := make([]poseidon.HashOut, len(level)/2)
		for i := range next {
			next[i] = poseidon.TwoToOne(level[2*i], level[2*i+1])
		}
		levels = append(levels, next)
		level = next
	}
	return levels
}

// TestBuildMatchesScalarReference checks every digest of the batched
// tree against the scalar reference: leaf widths that pass through,
// fill one sponge block or spill into more; a ragged chunk; chunks
// smaller than the eight-hash batch (4 leaves); and levels narrower than
// eight just below caps of height 0..4.
func TestBuildMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, width := range []int{1, 4, 5, 8, 9, 16, 17, 32, 135} {
		for _, n := range []int{4, 16, 256} {
			for capHeight := 0; capHeight <= min(4, ntt.Log2(n)); capHeight++ {
				leaves := randLeaves(rng, n, width)
				if n == 256 {
					leaves[70] = leaves[70][:width-1] // ragged chunk
				}
				want := scalarLevels(leaves, capHeight)
				got := Build(leaves, capHeight)
				if len(got.levels) != len(want) {
					t.Fatalf("width=%d n=%d cap=%d: %d levels, want %d", width, n, capHeight, len(got.levels), len(want))
				}
				for l := range want {
					for i := range want[l] {
						if got.levels[l][i] != want[l][i] {
							t.Fatalf("width=%d n=%d cap=%d: level %d digest %d differs from the scalar tree",
								width, n, capHeight, l, i)
						}
					}
				}
			}
		}
	}
}

func TestVerifyRejectsTamperedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	leaves := randLeaves(rng, 32, 5)
	tree := Build(leaves, 1)
	c := tree.Cap()
	data, proof := leaves[13], tree.Open(13)
	proof.Siblings[1][0] = field.Add(proof.Siblings[1][0], field.One)
	if Verify(data, 13, proof, c) == nil {
		t.Fatal("tampered sibling accepted")
	}
}

func TestVerifyRejectsWrongCap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	leaves := randLeaves(rng, 16, 3)
	data, proof := leaves[0], Build(leaves, 0).Open(0)
	other := Build(randLeaves(rng, 16, 3), 0)
	if Verify(data, 0, proof, other.Cap()) == nil {
		t.Fatal("proof accepted against unrelated cap")
	}
}

func TestRootMatchesManualCompression(t *testing.T) {
	leaves := [][]field.Element{{1}, {2}, {3}, {4}}
	tree := Build(leaves, 0)
	l0 := poseidon.HashOrNoop(leaves[0])
	l1 := poseidon.HashOrNoop(leaves[1])
	l2 := poseidon.HashOrNoop(leaves[2])
	l3 := poseidon.HashOrNoop(leaves[3])
	want := poseidon.TwoToOne(poseidon.TwoToOne(l0, l1), poseidon.TwoToOne(l2, l3))
	if tree.Cap()[0] != want {
		t.Fatal("root does not match manual compression")
	}
}

func TestProofLength(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tree := Build(randLeaves(rng, 64, 2), 2)
	proof := tree.Open(0)
	if len(proof.Siblings) != 4 { // log2(64) - capHeight
		t.Fatalf("proof length %d, want 4", len(proof.Siblings))
	}
}

func TestBuildPanicsOnBadInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, f := range []func(){
		func() { Build(randLeaves(rng, 3, 1), 0) },  // non power of two
		func() { Build(randLeaves(rng, 8, 1), 4) },  // cap too high
		func() { Build(randLeaves(rng, 8, 1), -1) }, // negative cap
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLargeParallelBuildConsistent(t *testing.T) {
	// The parallel path (n >= 256) must agree with sequential verification.
	rng := rand.New(rand.NewSource(9))
	n := 1024
	leaves := randLeaves(rng, n, 6)
	tree := Build(leaves, 3)
	c := tree.Cap()
	for _, i := range []int{0, 1, 511, 512, 1023} {
		if err := Verify(leaves[i], i, tree.Open(i), c); err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
	}
}

func BenchmarkBuild4096x8(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	leaves := randLeaves(rng, 4096, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(leaves, 4)
	}
}

func TestBuildAcrossWorkerCounts(t *testing.T) {
	// Force multi-worker pools regardless of GOMAXPROCS: the tree must be
	// identical whatever the worker count, including more workers than
	// chunks.
	rng := rand.New(rand.NewSource(13))
	leaves := randLeaves(rng, 1024, 4)
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)

	parallel.SetWorkers(1)
	ref := Build(leaves, 2)
	for _, workers := range []int{2, 4, 512} {
		parallel.SetWorkers(workers)
		got := Build(leaves, 2)
		if len(got.Cap()) != len(ref.Cap()) {
			t.Fatalf("workers=%d: cap size mismatch", workers)
		}
		for i := range ref.Cap() {
			if got.Cap()[i] != ref.Cap()[i] {
				t.Fatalf("workers=%d: cap digest %d differs from serial", workers, i)
			}
		}
	}
}

func TestNumLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tree := Build(randLeaves(rng, 16, 2), 0)
	if tree.NumLeaves() != 16 {
		t.Fatalf("NumLeaves = %d, want 16", tree.NumLeaves())
	}
}

func TestOpenPanicsOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tree := Build(randLeaves(rng, 8, 1), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tree.Open(8)
}

// TestBuildColumnsMatchesRows builds each tree twice, from rows with
// BuildContext and from the same data column-major with
// BuildColumnsContext, and requires equal caps and equal paths for every
// leaf, across no-op and hashed widths, cap heights and the pool.
func TestBuildColumnsMatchesRows(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(14))
	ctx := context.Background()
	for _, tc := range []struct{ n, width, capH, workers int }{
		{2, 1, 0, 1},
		{8, 4, 1, 1},
		{16, 5, 0, 2},
		{64, 48, 2, 2},
		{1024, 9, 3, 7},
	} {
		parallel.SetWorkers(tc.workers)
		rows := randLeaves(rng, tc.n, tc.width)
		cols := make([][]field.Element, tc.width)
		for i := range cols {
			cols[i] = make([]field.Element, tc.n)
			for j, row := range rows {
				cols[i][j] = row[i]
			}
		}
		want, err := BuildContext(ctx, rows, tc.capH)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildColumnsContext(ctx, cols, tc.capH)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Cap(), want.Cap()) {
			t.Fatalf("n=%d width=%d: caps differ", tc.n, tc.width)
		}
		for i := range tc.n {
			if !slices.Equal(got.Open(i).Siblings, want.Open(i).Siblings) {
				t.Fatalf("n=%d width=%d: leaf %d: paths differ", tc.n, tc.width, i)
			}
		}
	}
}
