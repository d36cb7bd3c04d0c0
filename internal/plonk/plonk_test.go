package plonk

import (
	"errors"
	"testing"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/trace"
)

// paperCircuit builds the paper's running example (Fig. 1): the prover
// knows (x0, x1, x2, x3) with (x0 + x1)·(x2·x3) = out, out public.
func paperCircuit() (*Circuit, [4]Target, Target) {
	b := NewBuilder()
	out := b.AddPublicInput()
	var xs [4]Target
	for i := range xs {
		xs[i] = b.AddVirtual()
	}
	sum := b.Add(xs[0], xs[1])
	prod := b.Mul(xs[2], xs[3])
	res := b.Mul(sum, prod)
	b.AssertEqual(res, out)
	return b.Build(fri.TestConfig()), xs, out
}

func TestPaperExampleRoundTrip(t *testing.T) {
	c, xs, out := paperCircuit()
	w := c.NewWitness()
	// (2+1)·(3·11) = 99, the paper's statement.
	w.Set(xs[0], field.New(2))
	w.Set(xs[1], field.New(1))
	w.Set(xs[2], field.New(3))
	w.Set(xs[3], field.New(11))
	w.Set(out, field.New(99))

	proof, err := c.Prove(w, nil)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if err := Verify(c.VerificationKey(), []field.Element{field.New(99)}, proof); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestProveRejectsBadWitness(t *testing.T) {
	c, xs, out := paperCircuit()
	w := c.NewWitness()
	w.Set(xs[0], field.New(2))
	w.Set(xs[1], field.New(1))
	w.Set(xs[2], field.New(3))
	w.Set(xs[3], field.New(11))
	w.Set(out, field.New(100)) // wrong claimed output
	if _, err := c.Prove(w, nil); err == nil {
		t.Fatal("prover accepted an unsatisfied circuit")
	}
}

func TestVerifyRejectsWrongPublicInput(t *testing.T) {
	c, xs, out := paperCircuit()
	w := c.NewWitness()
	w.Set(xs[0], field.New(2))
	w.Set(xs[1], field.New(1))
	w.Set(xs[2], field.New(3))
	w.Set(xs[3], field.New(11))
	w.Set(out, field.New(99))
	proof, err := c.Prove(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = Verify(c.VerificationKey(), []field.Element{field.New(100)}, proof)
	if err == nil || !errors.Is(err, ErrInvalidProof) {
		t.Fatalf("wrong public input: got %v", err)
	}
}

func TestVerifyRejectsTamperedProof(t *testing.T) {
	c, xs, out := paperCircuit()
	w := c.NewWitness()
	w.Set(xs[0], field.New(2))
	w.Set(xs[1], field.New(1))
	w.Set(xs[2], field.New(3))
	w.Set(xs[3], field.New(11))
	w.Set(out, field.New(99))
	pub := []field.Element{field.New(99)}
	vk := c.VerificationKey()

	fresh := func() *Proof {
		p, err := c.Prove(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := fresh()
	p.ZsOpen[0] = field.ExtAdd(p.ZsOpen[0], field.ExtOne)
	if Verify(vk, pub, p) == nil {
		t.Fatal("tampered Z opening accepted")
	}

	p = fresh()
	p.WiresOpen[1] = field.ExtAdd(p.WiresOpen[1], field.ExtOne)
	if Verify(vk, pub, p) == nil {
		t.Fatal("tampered wire opening accepted")
	}

	p = fresh()
	p.ConstantsOpen[2] = field.ExtAdd(p.ConstantsOpen[2], field.ExtOne)
	if Verify(vk, pub, p) == nil {
		t.Fatal("tampered constants opening accepted")
	}

	p = fresh()
	p.ZsNextOpen[0] = field.ExtAdd(p.ZsNextOpen[0], field.ExtOne)
	if Verify(vk, pub, p) == nil {
		t.Fatal("tampered next-row Z opening accepted")
	}

	p = fresh()
	p.QuotientOpen[0] = field.ExtAdd(p.QuotientOpen[0], field.ExtOne)
	if Verify(vk, pub, p) == nil {
		t.Fatal("tampered quotient opening accepted")
	}

	p = fresh()
	p.WiresCap[0][0] = field.Add(p.WiresCap[0][0], field.One)
	if Verify(vk, pub, p) == nil {
		t.Fatal("tampered wires cap accepted")
	}

	p = fresh()
	p.FRI.PowWitness = field.Add(p.FRI.PowWitness, field.One)
	if Verify(vk, pub, p) == nil {
		t.Fatal("tampered FRI accepted")
	}
}

// fibCircuit proves knowledge of the k-th Fibonacci number: public inputs
// are the two seeds and the claimed result.
func fibCircuit(k int) (*Circuit, func(*Witness)) {
	b := NewBuilder()
	f0 := b.AddPublicInput()
	f1 := b.AddPublicInput()
	result := b.AddPublicInput()
	prev, cur := f0, f1
	for i := 2; i <= k; i++ {
		prev, cur = cur, b.Add(prev, cur)
	}
	b.AssertEqual(cur, result)
	c := b.Build(fri.TestConfig())
	fill := func(w *Witness) {
		w.Set(f0, field.New(0))
		w.Set(f1, field.New(1))
	}
	return c, fill
}

func fibNumber(k int) field.Element {
	a, b := field.Zero, field.One
	for i := 2; i <= k; i++ {
		a, b = b, field.Add(a, b)
	}
	return b
}

func TestFibonacciCircuit(t *testing.T) {
	const k = 40
	c, fill := fibCircuit(k)
	w := c.NewWitness()
	fill(w)
	want := fibNumber(k)
	w.Set(c.pubTargets[2], want)
	proof, err := c.Prove(w, nil)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	pub := []field.Element{0, 1, want}
	if err := Verify(c.VerificationKey(), pub, proof); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// A wrong claimed Fibonacci number must fail at proving time: the
	// generator computing the real value conflicts with the claimed
	// public input on the same copy class.
	w2 := c.NewWitness()
	fill(w2)
	w2.Set(c.pubTargets[2], field.Add(want, field.One))
	if _, err := c.Prove(w2, nil); err == nil {
		t.Error("prover accepted wrong Fibonacci claim")
	}
}

func TestGateHelpers(t *testing.T) {
	b := NewBuilder()
	x := b.AddVirtual()
	y := b.AddVirtual()
	five := b.Constant(field.New(5))
	sum := b.Add(x, y)
	diff := b.Sub(x, y)
	prod := b.Mul(x, y)
	ma := b.MulAdd(x, y, five)
	ac := b.AddConst(x, field.New(10))
	mc := b.MulConst(field.New(3), y)
	bit := b.AddVirtual()
	b.AssertBool(bit)
	zero := b.Sub(x, x)
	b.AssertZero(zero)
	c := b.Build(fri.TestConfig())

	w := c.NewWitness()
	w.Set(x, field.New(7))
	w.Set(y, field.New(4))
	w.Set(bit, field.New(1))
	proof, err := c.Prove(w, nil)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if err := Verify(c.VerificationKey(), nil, proof); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Generator results are as expected.
	checks := []struct {
		t    Target
		want uint64
	}{{five, 5}, {sum, 11}, {diff, 3}, {prod, 28}, {ma, 33}, {ac, 17}, {mc, 12}}
	for _, tc := range checks {
		if got := w.Get(tc.t); got != field.New(tc.want) {
			t.Errorf("target value = %d, want %d", got, tc.want)
		}
	}
}

func TestAssertBoolRejectsNonBoolean(t *testing.T) {
	b := NewBuilder()
	bit := b.AddVirtual()
	b.AssertBool(bit)
	c := b.Build(fri.TestConfig())
	w := c.NewWitness()
	w.Set(bit, field.New(2))
	if _, err := c.Prove(w, nil); err == nil {
		t.Fatal("non-boolean value accepted by AssertBool")
	}
}

func TestWitnessConflictDetected(t *testing.T) {
	b := NewBuilder()
	x := b.AddVirtual()
	y := b.AddVirtual()
	b.Connect(x, y)
	c := b.Build(fri.TestConfig())
	w := c.NewWitness()
	w.Set(x, field.New(1))
	w.Set(y, field.New(2))
	if w.Err() == nil {
		t.Fatal("conflicting witness assignment not detected")
	}
	if _, err := c.Prove(w, nil); err == nil {
		t.Fatal("Prove ignored witness conflict")
	}
}

func TestPublicInputsAfterGatesPanics(t *testing.T) {
	b := NewBuilder()
	b.AddVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("late public input should panic")
		}
	}()
	b.AddPublicInput()
}

func TestProveRecordsKernelGraph(t *testing.T) {
	c, xs, out := paperCircuit()
	w := c.NewWitness()
	w.Set(xs[0], field.New(2))
	w.Set(xs[1], field.New(1))
	w.Set(xs[2], field.New(3))
	w.Set(xs[3], field.New(11))
	w.Set(out, field.New(99))
	rec := trace.New()
	if _, err := c.Prove(w, rec); err != nil {
		t.Fatal(err)
	}
	counts := map[trace.Kind]int{}
	for _, n := range rec.Nodes() {
		counts[n.Kind]++
	}
	for _, k := range []trace.Kind{trace.NTT, trace.MerkleTree, trace.VecOp,
		trace.PartialProd, trace.Hash, trace.Transpose} {
		if counts[k] == 0 {
			t.Errorf("no %v kernels recorded", k)
		}
	}
}

func TestProofDeterminism(t *testing.T) {
	run := func() *Proof {
		c, xs, out := paperCircuit()
		w := c.NewWitness()
		w.Set(xs[0], field.New(2))
		w.Set(xs[1], field.New(1))
		w.Set(xs[2], field.New(3))
		w.Set(xs[3], field.New(11))
		w.Set(out, field.New(99))
		p, err := c.Prove(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p2 := run(), run()
	if p1.ZsOpen[0] != p2.ZsOpen[0] || p1.FRI.PowWitness != p2.FRI.PowWitness {
		t.Fatal("proof generation not deterministic")
	}
}

func BenchmarkProveFib256(b *testing.B) {
	c, fill := fibCircuit(256)
	want := fibNumber(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := c.NewWitness()
		fill(w)
		w.Set(c.pubTargets[2], want)
		if _, err := c.Prove(w, nil); err != nil {
			b.Fatal(err)
		}
	}
}
