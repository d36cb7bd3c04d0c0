package plonk

import (
	"testing"

	"unizk/internal/field"
	"unizk/internal/fri"
)

// wideFib builds a Fibonacci chain compiled at the given repetition count;
// the chain's copy constraints cross column groups, exercising the chained
// partial-product permutation argument (§5.4).
func wideFib(t *testing.T, k, reps int) (*Circuit, *Witness, []field.Element) {
	t.Helper()
	b := NewBuilder()
	out := b.AddPublicInput()
	prev := b.Constant(field.Zero)
	cur := b.Constant(field.One)
	for i := 2; i <= k; i++ {
		prev, cur = cur, b.Add(prev, cur)
	}
	b.AssertEqual(cur, out)
	c := b.BuildWide(fri.TestConfig(), reps)
	w := c.NewWitness()
	want := fibNumber(k)
	w.Set(out, want)
	return c, w, []field.Element{want}
}

func TestWideCircuitRoundTrip(t *testing.T) {
	for _, reps := range []int{1, 2, 3, 4, 9} {
		c, w, pub := wideFib(t, 100, reps)
		if c.Reps != reps || c.NumCols != 3*reps {
			t.Fatalf("reps=%d: circuit has %d reps, %d cols", reps, c.Reps, c.NumCols)
		}
		proof, err := c.Prove(w, nil)
		if err != nil {
			t.Fatalf("reps=%d prove: %v", reps, err)
		}
		if len(proof.ZsOpen) != reps {
			t.Fatalf("reps=%d: %d Z openings", reps, len(proof.ZsOpen))
		}
		if err := Verify(c.VerificationKey(), pub, proof); err != nil {
			t.Fatalf("reps=%d verify: %v", reps, err)
		}
	}
}

func TestWideCircuitFewerRows(t *testing.T) {
	// Packing 100 gates at reps=4 needs a quarter of the rows.
	c1, _, _ := wideFib(t, 100, 1)
	c4, _, _ := wideFib(t, 100, 4)
	if c4.N >= c1.N {
		t.Fatalf("reps=4 rows (%d) should be below reps=1 rows (%d)", c4.N, c1.N)
	}
}

func TestWideCircuitRejectsBadWitness(t *testing.T) {
	c, w, _ := wideFib(t, 50, 4)
	// Override the public output with a wrong claim.
	k, _ := c.classOf(c.pubTargets[0])
	w.values[k] = field.New(12345)
	if _, err := c.Prove(w, nil); err == nil {
		t.Fatal("wide prover accepted wrong claim")
	}
}

func TestWideVerifierRejectsTamper(t *testing.T) {
	c, w, pub := wideFib(t, 60, 3)
	vk := c.VerificationKey()
	proof, err := c.Prove(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper each partial product opening in turn.
	for j := 0; j < c.Reps; j++ {
		p, err := c.Prove(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.ZsOpen[j] = field.ExtAdd(p.ZsOpen[j], field.ExtOne)
		if Verify(vk, pub, p) == nil {
			t.Fatalf("tampered π_%d accepted", j)
		}
	}
	// And a wire of the last group.
	proof.WiresOpen[len(proof.WiresOpen)-1] =
		field.ExtAdd(proof.WiresOpen[len(proof.WiresOpen)-1], field.ExtOne)
	if Verify(vk, pub, proof) == nil {
		t.Fatal("tampered last-group wire accepted")
	}
}

func TestWidePublicInputsStayInRepZero(t *testing.T) {
	b := NewBuilder()
	var pubs []Target
	for i := 0; i < 20; i++ {
		pubs = append(pubs, b.AddPublicInput())
	}
	// A few gates consuming the publics.
	acc := pubs[0]
	for i := 1; i < 20; i++ {
		acc = b.Add(acc, pubs[i])
	}
	c := b.BuildWide(fri.TestConfig(), 8)
	// 20 public inputs with reps=8 force N >= 20 -> 32 rows.
	if c.N < 20 {
		t.Fatalf("N=%d cannot hold 20 public inputs in rep 0", c.N)
	}
	w := c.NewWitness()
	var pub []field.Element
	for i, p := range pubs {
		v := field.New(uint64(i + 1))
		w.Set(p, v)
		pub = append(pub, v)
	}
	proof, err := c.Prove(w, nil)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if err := Verify(c.VerificationKey(), pub, proof); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestBuildWideRejectsBadReps(t *testing.T) {
	b := NewBuilder()
	b.AddVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("reps=0 should panic")
		}
	}()
	b.BuildWide(fri.TestConfig(), 0)
}

func TestBuildWideRejectsLowRate(t *testing.T) {
	b := NewBuilder()
	b.AddVirtual()
	cfg := fri.TestConfig()
	cfg.RateBits = 1
	defer func() {
		if recover() == nil {
			t.Fatal("RateBits=1 should panic")
		}
	}()
	b.BuildWide(cfg, 1)
}

func TestProofSerializationRoundTrip(t *testing.T) {
	c, w, pub := wideFib(t, 60, 3)
	proof, err := c.Prove(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Proof
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if err := Verify(c.VerificationKey(), pub, &back); err != nil {
		t.Fatalf("decoded proof rejected: %v", err)
	}
	// Corrupting any byte must break decoding or verification.
	for _, idx := range []int{0, len(data) / 2, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[idx] ^= 0x01
		var bad Proof
		if err := bad.UnmarshalBinary(mut); err == nil {
			if Verify(c.VerificationKey(), pub, &bad) == nil {
				t.Fatalf("corrupted byte %d accepted", idx)
			}
		}
	}
	// Truncation must be rejected at decode time.
	var trunc Proof
	if err := trunc.UnmarshalBinary(data[:len(data)-3]); err == nil {
		t.Fatal("truncated proof decoded")
	}
}
