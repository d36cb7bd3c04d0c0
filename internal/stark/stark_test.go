package stark

import (
	"errors"
	"testing"

	"unizk/internal/constraint"
	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/trace"
)

// fibAIR is the paper's Fig. 2 example: columns (x0, x1) with transitions
// x0' = x1 and x1' = x0 + x1, seeded (0, 1), proving x1[last] = F(N).
func fibAIR(logN int) (*Stark, [][]field.Element, field.Element) {
	n := 1 << logN
	c0 := make([]field.Element, n)
	c1 := make([]field.Element, n)
	c0[0], c1[0] = field.Zero, field.One
	for r := 1; r < n; r++ {
		c0[r] = c1[r-1]
		c1[r] = field.Add(c0[r-1], c1[r-1])
	}
	result := c1[n-1]
	air := AIR{
		Width: 2,
		Transitions: []*constraint.Expr{
			constraint.Sub(constraint.Next(0), constraint.Col(1)),
			constraint.Sub(constraint.Next(1), constraint.Add(constraint.Col(0), constraint.Col(1))),
		},
		FirstRow: []Boundary{{Col: 0, Value: 0}, {Col: 1, Value: 1}},
		LastRow:  []Boundary{{Col: 1, Value: result}},
	}
	s, err := New(air, logN, fri.TestConfig())
	if err != nil {
		panic(err)
	}
	return s, [][]field.Element{c0, c1}, result
}

func TestFibonacciRoundTrip(t *testing.T) {
	for _, logN := range []int{3, 5, 7} {
		s, cols, _ := fibAIR(logN)
		proof, err := s.Prove(cols, nil)
		if err != nil {
			t.Fatalf("logN=%d prove: %v", logN, err)
		}
		if err := s.Verify(proof); err != nil {
			t.Fatalf("logN=%d verify: %v", logN, err)
		}
	}
}

func TestProveRejectsBadTrace(t *testing.T) {
	s, cols, _ := fibAIR(4)
	cols[1][5] = field.Add(cols[1][5], field.One)
	if _, err := s.Prove(cols, nil); err == nil {
		t.Fatal("prover accepted a trace violating transitions")
	}
}

func TestProveRejectsBadBoundary(t *testing.T) {
	s, cols, _ := fibAIR(4)
	// Rebuild a valid-transition trace with the wrong seed.
	n := len(cols[0])
	cols[0][0], cols[1][0] = field.One, field.One
	for r := 1; r < n; r++ {
		cols[0][r] = cols[1][r-1]
		cols[1][r] = field.Add(cols[0][r-1], cols[1][r-1])
	}
	if _, err := s.Prove(cols, nil); err == nil {
		t.Fatal("prover accepted a trace violating the first-row constraint")
	}
}

func TestVerifyRejectsDifferentClaim(t *testing.T) {
	s, cols, result := fibAIR(4)
	proof, err := s.Prove(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A verifier instance claiming a different output must reject: the
	// boundary values are part of the transcript and the quotient.
	air := s.AIR
	air.LastRow = []Boundary{{Col: 1, Value: field.Add(result, field.One)}}
	s2, err := New(air, s.LogN, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Verify(proof); err == nil {
		t.Fatal("proof accepted for a different claimed output")
	}
}

func TestVerifyRejectsTamperedProof(t *testing.T) {
	s, cols, _ := fibAIR(5)
	fresh := func() *Proof {
		p, err := s.Prove(cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := fresh()
	p.TraceOpen[0] = field.ExtAdd(p.TraceOpen[0], field.ExtOne)
	if s.Verify(p) == nil {
		t.Fatal("tampered trace opening accepted")
	}

	p = fresh()
	p.QuotientOpen[1] = field.ExtAdd(p.QuotientOpen[1], field.ExtOne)
	if s.Verify(p) == nil {
		t.Fatal("tampered quotient opening accepted")
	}

	p = fresh()
	p.TraceCap[0][0] = field.Add(p.TraceCap[0][0], field.One)
	if s.Verify(p) == nil {
		t.Fatal("tampered trace cap accepted")
	}

	p = fresh()
	p.FRI.FinalPoly[0] = field.ExtAdd(p.FRI.FinalPoly[0], field.ExtOne)
	err := s.Verify(p)
	if err == nil || !errors.Is(err, ErrInvalidProof) {
		t.Fatalf("tampered FRI final poly: got %v", err)
	}
}

// countersAIR exercises a higher-degree constraint: c' = c·c + 1 (degree 2)
// alongside a linear counter.
func TestHigherDegreeConstraint(t *testing.T) {
	logN := 4
	n := 1 << logN
	c := make([]field.Element, n)
	c[0] = field.New(2)
	for r := 1; r < n; r++ {
		c[r] = field.Add(field.Square(c[r-1]), field.One)
	}
	air := AIR{
		Width: 1,
		Transitions: []*constraint.Expr{
			constraint.Sub(constraint.Next(0), constraint.Add(constraint.Mul(constraint.Col(0), constraint.Col(0)), constraint.Const(field.One))),
		},
		FirstRow: []Boundary{{Col: 0, Value: field.New(2)}},
		LastRow:  []Boundary{{Col: 0, Value: c[n-1]}},
	}
	s, err := New(air, logN, fri.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := s.Prove([][]field.Element{c}, nil)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if err := s.Verify(proof); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestNewRejectsBadAIR(t *testing.T) {
	deg5 := constraint.Mul(constraint.Col(0), constraint.Mul(constraint.Col(0), constraint.Mul(constraint.Col(0), constraint.Mul(constraint.Col(0), constraint.Col(0)))))
	cases := []AIR{
		{Width: 0},
		{Width: 1, Transitions: []*constraint.Expr{deg5}},
		{Width: 1, Transitions: []*constraint.Expr{constraint.Sub(constraint.Next(3), constraint.Col(0))}},
		{Width: 1, FirstRow: []Boundary{{Col: 2}}},
	}
	for i, air := range cases {
		if _, err := New(air, 4, fri.TestConfig()); err == nil {
			t.Errorf("case %d: bad AIR accepted", i)
		}
	}
	if _, err := New(AIR{Width: 1}, 1, fri.TestConfig()); err == nil {
		t.Error("tiny trace accepted")
	}
}

func TestExprDegreeAndMaxCol(t *testing.T) {
	e := constraint.Add(constraint.Mul(constraint.Col(2), constraint.Next(4)), constraint.Const(field.One))
	if e.Degree() != 2 {
		t.Errorf("degree = %d, want 2", e.Degree())
	}
	if e.MaxCol() != 4 {
		t.Errorf("maxcol = %d, want 4", e.MaxCol())
	}
}

func TestProveRecordsKernels(t *testing.T) {
	s, cols, _ := fibAIR(5)
	rec := trace.New()
	if _, err := s.Prove(cols, rec); err != nil {
		t.Fatal(err)
	}
	counts := map[trace.Kind]int{}
	for _, n := range rec.Nodes() {
		counts[n.Kind]++
	}
	for _, k := range []trace.Kind{trace.NTT, trace.MerkleTree, trace.VecOp, trace.Hash} {
		if counts[k] == 0 {
			t.Errorf("no %v kernels recorded", k)
		}
	}
}

func TestStarkyBlowupConfig(t *testing.T) {
	// The Starky configuration uses blowup factor 2 (paper §2.2).
	if cfg := fri.StarkyConfig(); cfg.RateBits != 1 {
		t.Fatalf("Starky rate bits = %d, want 1", cfg.RateBits)
	}
	s, cols, _ := func() (*Stark, [][]field.Element, field.Element) {
		logN := 6
		n := 1 << logN
		c0 := make([]field.Element, n)
		c1 := make([]field.Element, n)
		c0[0], c1[0] = field.Zero, field.One
		for r := 1; r < n; r++ {
			c0[r] = c1[r-1]
			c1[r] = field.Add(c0[r-1], c1[r-1])
		}
		air := AIR{
			Width: 2,
			Transitions: []*constraint.Expr{
				constraint.Sub(constraint.Next(0), constraint.Col(1)),
				constraint.Sub(constraint.Next(1), constraint.Add(constraint.Col(0), constraint.Col(1))),
			},
			FirstRow: []Boundary{{Col: 0, Value: 0}, {Col: 1, Value: 1}},
			LastRow:  []Boundary{{Col: 1, Value: c1[n-1]}},
		}
		st, err := New(air, logN, fri.Config{
			RateBits: 1, CapHeight: 1, NumQueries: 12,
			ProofOfWorkBits: 4, FinalPolyBits: 2,
		})
		if err != nil {
			panic(err)
		}
		return st, [][]field.Element{c0, c1}, c1[n-1]
	}()
	proof, err := s.Prove(cols, nil)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if err := s.Verify(proof); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func BenchmarkProveFib1024(b *testing.B) {
	s, cols, _ := fibAIR(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Prove(cols, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStarkProofSerializationRoundTrip(t *testing.T) {
	s, cols, _ := fibAIR(5)
	proof, err := s.Prove(cols, nil)
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
	if err := s.Verify(&back); err != nil {
		t.Fatalf("decoded proof rejected: %v", err)
	}
	var trunc Proof
	if err := trunc.UnmarshalBinary(data[:len(data)-1]); err == nil {
		t.Fatal("truncated proof decoded")
	}
}
