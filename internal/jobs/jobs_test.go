package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"testing"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/prooferr"
	"unizk/internal/wire"
	"unizk/internal/workloads"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Kind: KindPlonk, Workload: "Fibonacci", LogRows: 6},
		{Kind: KindStark, Workload: "Factorial", LogRows: 8, Payload: []byte{1, 2, 3}},
		{Kind: KindStark, Workload: "SHA-256", LogRows: 1},
		{Kind: KindPlonk, Workload: "Fibonacci", LogRows: 6, IdempotencyKey: "client-7/retry-group-3"},
	}
	for _, q := range cases {
		raw, err := q.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Request
		if err := got.UnmarshalBinary(raw); err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if got.Kind != q.Kind || got.Workload != q.Workload ||
			got.LogRows != q.LogRows || !bytes.Equal(got.Payload, q.Payload) ||
			got.IdempotencyKey != q.IdempotencyKey {
			t.Fatalf("round trip: got %+v, want %+v", got, q)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := Result{
		Kind:   KindPlonk,
		Proof:  []byte{9, 8, 7},
		Public: []field.Element{field.New(1), field.New(2)},
	}
	raw, err := res.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := got.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if got.Kind != res.Kind || !bytes.Equal(got.Proof, res.Proof) ||
		len(got.Public) != len(res.Public) ||
		got.Public[0] != res.Public[0] || got.Public[1] != res.Public[1] {
		t.Fatalf("round trip: got %+v, want %+v", got, res)
	}
}

func TestValidateClassification(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"unknown kind", Request{Kind: 9, Workload: "Fibonacci", LogRows: 6}, prooferr.ErrMalformedProof},
		{"empty workload", Request{Kind: KindPlonk, LogRows: 6}, prooferr.ErrMalformedProof},
		{"rows too big", Request{Kind: KindPlonk, Workload: "Fibonacci", LogRows: MaxLogRows + 1}, prooferr.ErrProofRejected},
		{"rows too small", Request{Kind: KindPlonk, Workload: "Fibonacci", LogRows: 0}, prooferr.ErrProofRejected},
		{"plonk payload", Request{Kind: KindPlonk, Workload: "Fibonacci", LogRows: 6, Payload: []byte{1}}, prooferr.ErrMalformedProof},
		{"oversized idempotency key", Request{Kind: KindPlonk, Workload: "Fibonacci", LogRows: 6,
			IdempotencyKey: string(make([]byte, MaxIdempotencyKey+1))}, prooferr.ErrMalformedProof},
	}
	for _, c := range cases {
		if err := c.req.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: Validate = %v, want class %v", c.name, err, c.want)
		}
	}
	ok := Request{Kind: KindStark, Workload: "Fibonacci", LogRows: 6}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

func TestCompileUnknownWorkload(t *testing.T) {
	_, err := Compile(&Request{Kind: KindPlonk, Workload: "nope", LogRows: 6})
	if !errors.Is(err, ErrBadRequest) || !errors.Is(err, prooferr.ErrMalformedProof) {
		t.Fatalf("unknown plonk workload: %v", err)
	}
	_, err = Compile(&Request{Kind: KindStark, Workload: "nope", LogRows: 6})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown stark workload: %v", err)
	}
}

func TestBadTracePayload(t *testing.T) {
	// Wrong column count.
	var w wire.Writer
	w.Len(5)
	_, err := Compile(&Request{Kind: KindStark, Workload: "Fibonacci", LogRows: 4, Payload: w.Bytes()})
	if !errors.Is(err, prooferr.ErrMalformedProof) {
		t.Fatalf("wrong width: %v", err)
	}
	// Right column count, wrong column length.
	var w2 wire.Writer
	w2.Len(2)
	w2.Elems([]field.Element{field.One})
	w2.Elems([]field.Element{field.One})
	_, err = Compile(&Request{Kind: KindStark, Workload: "Fibonacci", LogRows: 4, Payload: w2.Bytes()})
	if !errors.Is(err, prooferr.ErrMalformedProof) {
		t.Fatalf("wrong column length: %v", err)
	}
	// Garbage bytes.
	_, err = Compile(&Request{Kind: KindStark, Workload: "Fibonacci", LogRows: 4, Payload: []byte{0xff, 0xff}})
	if !errors.Is(err, prooferr.ErrMalformedProof) {
		t.Fatalf("garbage payload: %v", err)
	}
}

// TestExecuteMatchesDirectProve is the drift guard: the shared execution
// path, Compile then Prove, must produce byte-identical proofs to calling
// the provers directly, for both kinds.
func TestExecuteMatchesDirectProve(t *testing.T) {
	ctx := context.Background()

	req := &Request{Kind: KindPlonk, Workload: "Fibonacci", LogRows: 6}
	res, err := proveDirect(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckResult(req, res); err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("Fibonacci")
	if err != nil {
		t.Fatal(err)
	}
	circuit, wit, _, err := w.Build(6, fri.PlonkyConfig())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := circuit.ProveContext(ctx, wit, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Proof, direct) {
		t.Fatal("plonk: Compile+Prove proof differs from direct ProveContext")
	}

	sreq := &Request{Kind: KindStark, Workload: "Factorial", LogRows: 6}
	sres, err := proveDirect(ctx, sreq)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckResult(sreq, sres); err != nil {
		t.Fatal(err)
	}
	sw, err := workloads.StarkByName("Factorial")
	if err != nil {
		t.Fatal(err)
	}
	s, cols, err := sw.Build(6, fri.StarkyConfig())
	if err != nil {
		t.Fatal(err)
	}
	sproof, err := s.ProveContext(ctx, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	sdirect, err := sproof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sres.Proof, sdirect) {
		t.Fatal("stark: Compile+Prove proof differs from direct ProveContext")
	}
}

// TestStarkTracePayloadOverride proves a stark job whose trace arrives
// in the request payload rather than from the generator, and checks it
// matches proving the same columns directly.
func TestStarkTracePayloadOverride(t *testing.T) {
	sw, err := workloads.StarkByName("Fibonacci")
	if err != nil {
		t.Fatal(err)
	}
	s, cols, err := sw.Build(5, fri.StarkyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var w wire.Writer
	w.Len(len(cols))
	for _, col := range cols {
		w.Elems(col)
	}
	req := &Request{Kind: KindStark, Workload: "Fibonacci", LogRows: 5, Payload: w.Bytes()}
	res, err := proveDirect(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckResult(req, res); err != nil {
		t.Fatal(err)
	}
	proof, err := s.ProveContext(context.Background(), cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Proof, direct) {
		t.Fatal("payload-trace proof differs from direct prove of the same columns")
	}
}

func TestProveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := proveDirect(ctx, &Request{Kind: KindPlonk, Workload: "Fibonacci", LogRows: 6})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled prove = %v, want context.Canceled", err)
	}
}

func TestCheckRejectsTamperedResult(t *testing.T) {
	req := &Request{Kind: KindStark, Workload: "Factorial", LogRows: 5}
	res, err := proveDirect(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res.Proof[len(res.Proof)/2] ^= 1
	err = CheckResult(req, res)
	if !errors.Is(err, prooferr.ErrMalformedProof) && !errors.Is(err, prooferr.ErrProofRejected) {
		t.Fatalf("tampered result: %v, want a classified rejection", err)
	}
}

// TestSecurityBitsPinned pins the soundness the shipped configurations
// reach today, so a change that lowers it fails here instead of going
// unnoticed. Plonk is held by its permutation argument's single
// base-field β and γ, stark by α; FRI alone would give 100 bits.
func TestSecurityBitsPinned(t *testing.T) {
	if p, s := fri.PlonkyConfig().SecurityBits(), fri.StarkyConfig().SecurityBits(); p != 100 || s != 100 {
		t.Fatalf("FRI terms = %d (plonky), %d (starky), want 100 and 100", p, s)
	}
	for _, tc := range []struct {
		kind     Kind
		workload string
		logRows  int
		want     int
	}{
		{KindPlonk, "MVM", 11, 47},
		{KindPlonk, "MVM", 8, 50},
		{KindPlonk, "Fibonacci", 11, 48},
		{KindPlonk, "Fibonacci", 8, 51},
		{KindStark, "Fibonacci", 11, 61},
		{KindStark, "SHA-256", 8, 57},
	} {
		j, err := Compile(&Request{Kind: tc.kind, Workload: tc.workload, LogRows: tc.logRows})
		if err != nil {
			t.Fatal(err)
		}
		if got := j.SecurityBits(); got != tc.want {
			t.Errorf("%v %s 2^%d: %d security bits, want %d", tc.kind, tc.workload, tc.logRows, got, tc.want)
		}
	}
}

// TestEncodedSharesProofBytes checks that an Encoded holds one copy of
// the proof — its Proof is a window of Raw — and that DecodeEncoded
// rebuilds the same thing from the bytes and digest alone.
func TestEncodedSharesProofBytes(t *testing.T) {
	res := &Result{Kind: KindPlonk, Proof: bytes.Repeat([]byte{0xab}, 300), Public: []field.Element{field.New(7)}}
	enc := Encode(res)
	raw, err := res.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Raw, raw) || enc.Sum != sha256.Sum256(raw) {
		t.Fatal("Encode disagrees with MarshalBinary")
	}
	dec, err := DecodeEncoded(enc.Raw, enc.Sum)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Encoded{"Encode": enc, "DecodeEncoded": dec} {
		if !bytes.Equal(e.Proof, res.Proof) || len(e.Public) != 1 || e.Public[0] != res.Public[0] {
			t.Fatalf("%s: result %+v, want %+v", name, e.Result, res)
		}
		if &e.Proof[0] != &e.Raw[3] || cap(e.Proof) != len(e.Proof) {
			t.Fatalf("%s: proof is not a capped window of Raw", name)
		}
	}
}

// proveDirect compiles and proves req outside any service: the proof a
// served one is held against.
func proveDirect(ctx context.Context, req *Request) (*Result, error) {
	j, err := Compile(req)
	if err != nil {
		return nil, err
	}
	return j.Prove(ctx)
}
