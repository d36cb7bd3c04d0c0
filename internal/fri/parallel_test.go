package fri

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"unizk/internal/field"
	"unizk/internal/parallel"
	"unizk/internal/trace"
	"unizk/internal/wire"
)

func encodeProof(t *testing.T, p *Proof) []byte {
	t.Helper()
	w := &wire.Writer{}
	p.EncodeTo(w)
	return w.Bytes()
}

// TestCommitSerialVsParallel checks the full commitment flow (per-column
// iNTT, LDE, transpose, Merkle tree) is byte-identical across worker
// counts.
func TestCommitSerialVsParallel(t *testing.T) {
	prev := parallel.Workers()
	defer func() { parallel.SetSerial(false); parallel.SetWorkers(prev) }()

	cfg := TestConfig()
	for _, logN := range []int{4, 6, 8, 10, 12} {
		n := 1 << logN
		rng := rand.New(rand.NewSource(int64(logN)))
		values := randValues(rng, 3, n)

		parallel.SetSerial(true)
		ref := CommitValues(values, cfg.RateBits, cfg.CapHeight, nil)
		parallel.SetSerial(false)

		for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
			parallel.SetWorkers(workers)
			got := CommitValues(values, cfg.RateBits, cfg.CapHeight, nil)
			for i := range ref.Coeffs {
				for j := range ref.Coeffs[i] {
					if got.Coeffs[i][j] != ref.Coeffs[i][j] {
						t.Fatalf("logN=%d workers=%d: coeff [%d][%d] differs", logN, workers, i, j)
					}
				}
				for j := range ref.LDE[i] {
					if got.LDE[i][j] != ref.LDE[i][j] {
						t.Fatalf("logN=%d workers=%d: LDE [%d][%d] differs", logN, workers, i, j)
					}
				}
			}
			for i := range ref.Cap() {
				if got.Cap()[i] != ref.Cap()[i] {
					t.Fatalf("logN=%d workers=%d: cap digest %d differs", logN, workers, i)
				}
			}
		}
	}
}

// TestProveSerialVsParallel checks the full FRI proof — combine, fold,
// grind, query openings — and the post-proof challenger state are
// identical across worker counts. Transcript equality is the critical
// property: any divergence in a committed cap would fork the Fiat–Shamir
// chain.
func TestProveSerialVsParallel(t *testing.T) {
	prev := parallel.Workers()
	defer func() { parallel.SetSerial(false); parallel.SetWorkers(prev) }()

	for _, logN := range []int{4, 5, 7} {
		parallel.SetSerial(true)
		f := newFixture(t, int64(100+logN), logN)
		refCh := f.challenger()
		refProof := Prove(f.oracles, f.groups, f.opened, refCh, f.cfg, nil)
		refBytes := encodeProof(t, refProof)
		refState := refCh.Sample()
		parallel.SetSerial(false)

		for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
			parallel.SetWorkers(workers)
			ch := f.challenger()
			proof := Prove(f.oracles, f.groups, f.opened, ch, f.cfg, nil)
			if got := encodeProof(t, proof); !bytes.Equal(got, refBytes) {
				t.Fatalf("logN=%d workers=%d: proof bytes differ from serial", logN, workers)
			}
			if st := ch.Sample(); st != refState {
				t.Fatalf("logN=%d workers=%d: challenger transcript diverged", logN, workers)
			}
			if err := f.verify(proof); err != nil {
				t.Fatalf("logN=%d workers=%d: parallel proof rejected: %v", logN, workers, err)
			}
		}
	}
}

// TestGrindNodeIsSerialEquivalent checks the grind's Hash node under every
// worker count: it is the only Hash node, and its Size is witness+1, the
// tries of a serial search, whatever the block search ran. The benchmark's
// fri.grind_tries and its pins read this node.
func TestGrindNodeIsSerialEquivalent(t *testing.T) {
	prev := parallel.Workers()
	defer func() { parallel.SetSerial(false); parallel.SetWorkers(prev) }()

	f := newFixture(t, 31, 5)
	f.cfg.ProofOfWorkBits = 10
	var witness field.Element
	for i, workers := range []int{0, 1, 2, 7, runtime.NumCPU()} {
		parallel.SetSerial(workers == 0)
		parallel.SetWorkers(max(workers, 1))
		rec := trace.New()
		proof := f.prove(rec)
		var sizes []int
		for _, n := range rec.Nodes() {
			if n.Kind == trace.Hash {
				sizes = append(sizes, n.Size)
			}
		}
		if len(sizes) != 1 || sizes[0] != int(proof.PowWitness)+1 {
			t.Fatalf("workers=%d: Hash node sizes %v, want [%d] (witness+1)", workers, sizes, proof.PowWitness+1)
		}
		if i > 0 && proof.PowWitness != witness {
			t.Fatalf("workers=%d: witness %d, serial %d", workers, proof.PowWitness, witness)
		}
		witness = proof.PowWitness
	}
}

// TestEvalAllSerialVsParallel checks the batched opening evaluations.
func TestEvalAllSerialVsParallel(t *testing.T) {
	prev := parallel.Workers()
	defer func() { parallel.SetSerial(false); parallel.SetWorkers(prev) }()

	cfg := TestConfig()
	rng := rand.New(rand.NewSource(42))
	b := CommitValues(randValues(rng, 7, 1<<10), cfg.RateBits, cfg.CapHeight, nil)
	zeta := field.Ext{A: field.New(rng.Uint64()), B: field.New(rng.Uint64())}

	parallel.SetSerial(true)
	ref := b.EvalAll(zeta, nil)
	parallel.SetSerial(false)

	for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
		parallel.SetWorkers(workers)
		got := b.EvalAll(zeta, nil)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: opening %d differs from serial", workers, i)
			}
		}
	}
}
