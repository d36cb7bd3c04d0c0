package unizk_test

import (
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/merkle"
	"unizk/internal/ntt"
	"unizk/internal/parallel"
	"unizk/internal/plonk"
	"unizk/internal/poseidon"
	"unizk/internal/workloads"
)

// goldenVectors pins prover outputs for a fixed seed so that any
// behavioral drift — an NTT twiddle change, a Poseidon constant typo, a
// parallelization that is not bit-identical — fails loudly instead of
// silently changing every proof. Regenerate with:
//
//	UNIZK_UPDATE_GOLDEN=1 go test -run TestGoldenVectors .
type goldenVectors struct {
	// NTTDigest is the Poseidon hash of ForwardNN over the seeded vector.
	NTTDigest []uint64 `json:"ntt_digest"`
	// MerkleCap is the flattened cap of the seeded leaf set.
	MerkleCap []uint64 `json:"merkle_cap"`
	// PlonkPowWitness is the final FRI proof-of-work witness of the seed
	// circuit's proof, the last transcript-dependent value the prover
	// produces — if any earlier cap, challenge, or fold differed, the
	// grind would land elsewhere.
	PlonkPowWitness uint64 `json:"plonk_pow_witness"`
	// NTTSweep pins natural-order forward and inverse transform digests
	// across the size range where the transform changes strategy: serial
	// radix-2 at the bottom, cache-blocked parallel layers at the top. A
	// schedule change that is not bit-identical at any size fails here.
	NTTSweep []nttSweepEntry `json:"ntt_sweep"`
	// PlonkProofSHA256 and StarkProofSHA256 pin whole encoded proofs: the
	// seed circuit's, and the Fibonacci AIR's at 2^6 rows under
	// fri.TestConfig. Every cap, opening and FRI value is in the bytes,
	// so a reordered transcript fails here even where the proof-of-work
	// grind happens to land on the same witness.
	PlonkProofSHA256 string `json:"plonk_proof_sha256"`
	StarkProofSHA256 string `json:"stark_proof_sha256"`
}

// nttSweepEntry pins one size of the forward/inverse NTT sweep.
type nttSweepEntry struct {
	LogN    int      `json:"log_n"`
	Forward []uint64 `json:"forward"` // Poseidon digest of the forward output
	Inverse []uint64 `json:"inverse"` // Poseidon digest of the inverse output
}

// nttSweepRange is the pinned size range, 2^4 through 2^12: below the
// parallel threshold, at it, and above it.
const (
	nttSweepMinLog = 4
	nttSweepMaxLog = 12
)

const goldenPath = "testdata/golden.json"

// transform runs ntt.Transform in place, failing the test on error.
func transform(t *testing.T, data []field.Element, s ntt.Spec) {
	t.Helper()
	if err := ntt.Transform(context.Background(), data, s); err != nil {
		t.Fatal(err)
	}
}

// computeGolden produces the pinned values under the current execution
// mode (serial or parallel — the point is that both agree).
func computeGolden(t *testing.T) goldenVectors {
	t.Helper()

	// NTT: seeded 2^10 vector through the forward transform.
	rng := rand.New(rand.NewSource(0x12ee5))
	vec := make([]field.Element, 1<<10)
	for i := range vec {
		vec[i] = field.New(rng.Uint64())
	}
	transform(t, vec, ntt.Spec{})
	digest := poseidon.HashNoPad(vec)

	// Merkle: seeded 2^10 × 4 leaves, capHeight 2.
	leaves := make([][]field.Element, 1<<10)
	for i := range leaves {
		leaves[i] = make([]field.Element, 4)
		for j := range leaves[i] {
			leaves[i][j] = field.New(rng.Uint64())
		}
	}
	tree := merkle.Build(leaves, 2)
	var capFlat []uint64
	for _, h := range tree.Cap() {
		for _, e := range h {
			capFlat = append(capFlat, uint64(e))
		}
	}

	// NTT sweep: an independent seeded vector per size, forward and
	// inverse digested separately. The seed stream is separate from the
	// blocks above so adding sizes never perturbs the existing pins.
	sweepRng := rand.New(rand.NewSource(0x5eed_717))
	var sweep []nttSweepEntry
	for logN := nttSweepMinLog; logN <= nttSweepMaxLog; logN++ {
		v := make([]field.Element, 1<<logN)
		for i := range v {
			v[i] = field.New(sweepRng.Uint64())
		}
		fwd := append([]field.Element(nil), v...)
		transform(t, fwd, ntt.Spec{})
		inv := append([]field.Element(nil), v...)
		transform(t, inv, ntt.Spec{Inverse: true})

		// Round-trip sanity independent of the pinned digests.
		back := append([]field.Element(nil), fwd...)
		transform(t, back, ntt.Spec{Inverse: true})
		for i := range v {
			if back[i] != v[i] {
				t.Fatalf("NTT round-trip broke at 2^%d index %d", logN, i)
			}
		}

		entry := nttSweepEntry{LogN: logN}
		for _, e := range poseidon.HashNoPad(fwd) {
			entry.Forward = append(entry.Forward, uint64(e))
		}
		for _, e := range poseidon.HashNoPad(inv) {
			entry.Inverse = append(entry.Inverse, uint64(e))
		}
		sweep = append(sweep, entry)
	}

	// Plonk: the fixed seed circuit (x0+x1)·(x2·x3) = 99 end to end.
	proof := proveSeedCircuit(t)

	out := goldenVectors{
		MerkleCap:        capFlat,
		PlonkPowWitness:  uint64(proof.FRI.PowWitness),
		NTTSweep:         sweep,
		PlonkProofSHA256: proofDigest(t, proof),
		StarkProofSHA256: proofDigest(t, proveSeedStark(t)),
	}
	for _, e := range digest {
		out.NTTDigest = append(out.NTTDigest, uint64(e))
	}
	return out
}

func proveSeedCircuit(t *testing.T) *plonk.Proof {
	t.Helper()
	b := plonk.NewBuilder()
	out := b.AddPublicInput()
	var xs [4]plonk.Target
	for i := range xs {
		xs[i] = b.AddVirtual()
	}
	sum := b.Add(xs[0], xs[1])
	prod := b.Mul(xs[2], xs[3])
	b.AssertEqual(b.Mul(sum, prod), out)
	c := b.Build(fri.TestConfig())

	w := c.NewWitness()
	w.Set(xs[0], field.New(2))
	w.Set(xs[1], field.New(1))
	w.Set(xs[2], field.New(3))
	w.Set(xs[3], field.New(11))
	w.Set(out, field.New(99))
	proof, err := c.Prove(w, nil)
	if err != nil {
		t.Fatalf("seed circuit prove: %v", err)
	}
	return proof
}

// proveSeedStark proves the Fibonacci AIR on 2^6 rows.
func proveSeedStark(t *testing.T) encoding.BinaryMarshaler {
	t.Helper()
	s, cols, err := workloads.BuildFibonacciStark(6, fri.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := s.Prove(cols, nil)
	if err != nil {
		t.Fatalf("seed stark prove: %v", err)
	}
	return proof
}

// proofDigest is the hex SHA-256 of a proof's wire encoding.
func proofDigest(t *testing.T, proof encoding.BinaryMarshaler) string {
	t.Helper()
	data, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func (g goldenVectors) diff(ref goldenVectors) error {
	if len(g.NTTDigest) != len(ref.NTTDigest) {
		return fmt.Errorf("NTT digest length %d, want %d", len(g.NTTDigest), len(ref.NTTDigest))
	}
	for i := range ref.NTTDigest {
		if g.NTTDigest[i] != ref.NTTDigest[i] {
			return fmt.Errorf("NTT digest word %d = %#x, want %#x", i, g.NTTDigest[i], ref.NTTDigest[i])
		}
	}
	if len(g.MerkleCap) != len(ref.MerkleCap) {
		return fmt.Errorf("Merkle cap length %d, want %d", len(g.MerkleCap), len(ref.MerkleCap))
	}
	for i := range ref.MerkleCap {
		if g.MerkleCap[i] != ref.MerkleCap[i] {
			return fmt.Errorf("Merkle cap word %d = %#x, want %#x", i, g.MerkleCap[i], ref.MerkleCap[i])
		}
	}
	if g.PlonkPowWitness != ref.PlonkPowWitness {
		return fmt.Errorf("Plonk PoW witness = %#x, want %#x", g.PlonkPowWitness, ref.PlonkPowWitness)
	}
	if g.PlonkProofSHA256 != ref.PlonkProofSHA256 {
		return fmt.Errorf("Plonk proof SHA-256 = %s, want %s", g.PlonkProofSHA256, ref.PlonkProofSHA256)
	}
	if g.StarkProofSHA256 != ref.StarkProofSHA256 {
		return fmt.Errorf("Stark proof SHA-256 = %s, want %s", g.StarkProofSHA256, ref.StarkProofSHA256)
	}
	if len(g.NTTSweep) != len(ref.NTTSweep) {
		return fmt.Errorf("NTT sweep has %d sizes, want %d", len(g.NTTSweep), len(ref.NTTSweep))
	}
	for i, re := range ref.NTTSweep {
		ge := g.NTTSweep[i]
		if ge.LogN != re.LogN {
			return fmt.Errorf("NTT sweep entry %d is 2^%d, want 2^%d", i, ge.LogN, re.LogN)
		}
		for _, pair := range []struct {
			name     string
			got, ref []uint64
		}{{"forward", ge.Forward, re.Forward}, {"inverse", ge.Inverse, re.Inverse}} {
			if len(pair.got) != len(pair.ref) {
				return fmt.Errorf("NTT 2^%d %s digest length %d, want %d", re.LogN, pair.name, len(pair.got), len(pair.ref))
			}
			for w := range pair.ref {
				if pair.got[w] != pair.ref[w] {
					return fmt.Errorf("NTT 2^%d %s digest word %d = %#x, want %#x",
						re.LogN, pair.name, w, pair.got[w], pair.ref[w])
				}
			}
		}
	}
	return nil
}

func TestGoldenVectors(t *testing.T) {
	prevWorkers := parallel.Workers()
	defer func() { parallel.SetSerial(false); parallel.SetWorkers(prevWorkers) }()

	parallel.SetSerial(true)
	serial := computeGolden(t)
	parallel.SetSerial(false)

	if os.Getenv("UNIZK_UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(serial, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenPath)
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with UNIZK_UPDATE_GOLDEN=1 to create): %v", err)
	}
	var ref goldenVectors
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}

	if err := serial.diff(ref); err != nil {
		t.Errorf("serial execution drifted from golden vectors: %v", err)
	}

	for _, workers := range []int{2, runtime.NumCPU()} {
		parallel.SetWorkers(workers)
		got := computeGolden(t)
		if err := got.diff(ref); err != nil {
			t.Errorf("parallel execution (workers=%d) drifted from golden vectors: %v", workers, err)
		}
	}
}
