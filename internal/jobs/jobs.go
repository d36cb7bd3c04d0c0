// Package jobs defines the proof-job request/response encoding and
// execution path shared by the one-shot CLI (cmd/prove) and the proving
// service (internal/server, cmd/unizk-server). A Request names a
// workload kind plus its parameters and an optional witness/trace
// payload; a Result carries the serialized proof and its public inputs.
// Both round-trip through the internal/wire format, so the CLI and HTTP
// paths cannot drift: the service proves exactly the job a local
// `prove` invocation would, and the proof bytes are bit-identical
// (parallel.For's determinism contract extends through this layer).
//
// Errors are classified with the internal/prooferr taxonomy so the
// server can map them onto HTTP status codes in one place
// (internal/server/status.go): structurally invalid requests wrap
// ErrBadRequest (and prooferr.ErrMalformedProof), well-formed requests
// refused by policy wrap ErrRefused (and prooferr.ErrProofRejected).
package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"unizk/internal/field"
	"unizk/internal/fri"
	"unizk/internal/plonk"
	"unizk/internal/prooferr"
	"unizk/internal/stark"
	"unizk/internal/wire"
	"unizk/internal/workloads"
)

// Kind selects the proof system a job runs under.
type Kind uint8

const (
	// KindPlonk proves a Table 3 workload as a Plonky2-style circuit.
	KindPlonk Kind = 1
	// KindStark proves a Starky base-proof trace workload (Table 5).
	KindStark Kind = 2
)

// String returns the protocol name used by cmd/prove's -protocol flag.
func (k Kind) String() string {
	switch k {
	case KindPlonk:
		return "plonky2"
	case KindStark:
		return "starky"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// KindByName parses a cmd/prove -protocol value.
func KindByName(name string) (Kind, error) {
	switch name {
	case "plonky2":
		return KindPlonk, nil
	case "starky":
		return KindStark, nil
	default:
		return 0, fmt.Errorf("jobs: unknown protocol %q: %w: %w",
			name, ErrBadRequest, prooferr.ErrMalformedProof)
	}
}

// Sentinels for the two request-failure classes. Both also wrap the
// prooferr taxonomy, which is what internal/server keys its HTTP status
// mapping on.
var (
	// ErrBadRequest marks a structurally invalid request: unknown kind
	// or workload, an undecodable payload, or a payload whose shape does
	// not match the workload's AIR.
	ErrBadRequest = errors.New("jobs: bad request")
	// ErrRefused marks a well-formed request the policy refuses, e.g. a
	// row count above MaxLogRows.
	ErrRefused = errors.New("jobs: request refused")
	// ErrBuild marks a workload generator failure for an otherwise
	// acceptable request — the CLI maps it to its build exit code.
	ErrBuild = errors.New("jobs: workload build failed")
)

// Limits on acceptable requests. MaxLogRows bounds the resource cost of
// a single job (2^20 rows is the paper's full-scale operating point);
// MaxPayload and MaxWorkloadName bound attacker-controlled allocations
// before the wire layer's own caps kick in. MaxIdempotencyKey bounds the
// client-chosen retry-deduplication key. MaxRequestBytes bounds a whole
// encoded Request: MaxPayload plus the envelope around it (two uvarints,
// three length prefixes, and the workload name and key at their limits),
// so the service refuses a body as too long only when no valid request
// could be that long.
const (
	MaxLogRows        = 20
	MaxPayload        = 1 << 27
	MaxWorkloadName   = 128
	MaxIdempotencyKey = 128
	MaxRequestBytes   = MaxPayload + MaxWorkloadName + MaxIdempotencyKey + 5*binary.MaxVarintLen64
)

// Request is one proof job: which proof system, which workload, how many
// rows, and an optional payload overriding the workload's default
// witness data. For KindStark the payload, when non-empty, is a
// wire-encoded column-major trace (Len(width) then one Elems per
// column) replacing the generated trace; it must match the workload
// AIR's width and 2^LogRows rows. For KindPlonk the payload must be
// empty (witness overrides are reserved until circuit inputs are
// addressable over the wire).
type Request struct {
	Kind     Kind
	Workload string
	LogRows  int
	Payload  []byte

	// IdempotencyKey, when non-empty, makes the request safe to retry
	// against the proving service: submissions carrying the same key and
	// identical request bytes converge on one job (and one prove), and
	// the service replays the cached result instead of proving again.
	// Reusing a key with a different request is rejected. Empty means no
	// deduplication. The key travels in the request encoding, so an HTTP
	// retransmit of the same body is a dedup hit by construction.
	IdempotencyKey string
}

// EncodeTo serializes the request into an existing writer.
func (q *Request) EncodeTo(w *wire.Writer) {
	w.Uvarint(uint64(q.Kind))
	w.Str(q.Workload)
	w.Uvarint(uint64(q.LogRows))
	w.Blob(q.Payload)
	w.Str(q.IdempotencyKey)
}

// MarshalBinary serializes the request (implements
// encoding.BinaryMarshaler).
func (q *Request) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	q.EncodeTo(&w)
	return w.Bytes(), nil
}

// UnmarshalBinary deserializes a request. Decode errors are classified
// as malformed; semantic validation is Compile's job.
func (q *Request) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	q.Kind = Kind(r.Uvarint())
	q.Workload = r.Str()
	q.LogRows = int(r.Uvarint())
	q.Payload = r.Blob()
	q.IdempotencyKey = r.Str()
	if err := r.Done(); err != nil {
		return fmt.Errorf("jobs: decode request: %w: %w: %w",
			err, ErrBadRequest, prooferr.ErrMalformedProof)
	}
	return nil
}

// Validate checks the request's self-contained invariants: known kind,
// plausible workload name, row count within policy, payload within
// bounds. Workload existence and payload shape are checked by Compile,
// which has the workload tables at hand.
func (q *Request) Validate() error {
	switch q.Kind {
	case KindPlonk, KindStark:
	default:
		return fmt.Errorf("jobs: unknown kind %d: %w: %w",
			q.Kind, ErrBadRequest, prooferr.ErrMalformedProof)
	}
	if q.Workload == "" || len(q.Workload) > MaxWorkloadName {
		return fmt.Errorf("jobs: workload name length %d out of [1, %d]: %w: %w",
			len(q.Workload), MaxWorkloadName, ErrBadRequest, prooferr.ErrMalformedProof)
	}
	if q.LogRows < 1 || q.LogRows > MaxLogRows {
		return fmt.Errorf("jobs: logRows %d out of [1, %d]: %w: %w",
			q.LogRows, MaxLogRows, ErrRefused, prooferr.ErrProofRejected)
	}
	if len(q.Payload) > MaxPayload {
		return fmt.Errorf("jobs: payload %d bytes exceeds %d: %w: %w",
			len(q.Payload), MaxPayload, ErrRefused, prooferr.ErrProofRejected)
	}
	if q.Kind == KindPlonk && len(q.Payload) != 0 {
		return fmt.Errorf("jobs: plonk requests take no payload: %w: %w",
			ErrBadRequest, prooferr.ErrMalformedProof)
	}
	if len(q.IdempotencyKey) > MaxIdempotencyKey {
		return fmt.Errorf("jobs: idempotency key length %d exceeds %d: %w: %w",
			len(q.IdempotencyKey), MaxIdempotencyKey, ErrBadRequest, prooferr.ErrMalformedProof)
	}
	return nil
}

// Result is a completed job: the serialized proof and, for Plonk jobs,
// the public inputs the proof binds.
type Result struct {
	Kind   Kind
	Proof  []byte
	Public []field.Element
}

// EncodeTo serializes the result into an existing writer.
func (res *Result) EncodeTo(w *wire.Writer) {
	w.Uvarint(uint64(res.Kind))
	w.Blob(res.Proof)
	w.Elems(res.Public)
}

// MarshalBinary serializes the result.
func (res *Result) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	res.EncodeTo(&w)
	return w.Bytes(), nil
}

// Encoded is a result together with its wire encoding and the SHA-256
// of that encoding. It is made once, when the result is produced, and
// then shared read-only: the proof cache keeps it, the journal names the
// result by Sum, and every HTTP reply writes Raw. The result's Proof is
// a window of Raw, so an Encoded holds one copy of the proof.
type Encoded struct {
	*Result
	Raw []byte
	Sum [sha256.Size]byte
}

// Encode encodes and hashes res once.
func Encode(res *Result) *Encoded {
	var w wire.Writer
	w.Grow(len(res.Proof) + 8*len(res.Public) + 3*binary.MaxVarintLen64)
	res.EncodeTo(&w)
	raw := w.Bytes()
	return encoded(res, raw, sha256.Sum256(raw))
}

// DecodeEncoded rebuilds the Encoded of raw, a result encoding whose
// SHA-256 is sum.
func DecodeEncoded(raw []byte, sum [sha256.Size]byte) (*Encoded, error) {
	res := new(Result)
	if err := res.UnmarshalBinary(raw); err != nil {
		return nil, err
	}
	return encoded(res, raw, sum), nil
}

// encoded pairs res with its encoding raw, pointing the proof into raw
// when it sits there in EncodeTo's layout (always, unless raw spelled a
// length with a longer varint than EncodeTo writes).
func encoded(res *Result, raw []byte, sum [sha256.Size]byte) *Encoded {
	n := len(res.Proof)
	head := len(binary.AppendUvarint(nil, uint64(res.Kind))) + len(binary.AppendUvarint(nil, uint64(n)))
	if head+n <= len(raw) && bytes.Equal(raw[head:head+n], res.Proof) {
		res = &Result{Kind: res.Kind, Proof: raw[head : head+n : head+n], Public: res.Public}
	}
	return &Encoded{Result: res, Raw: raw, Sum: sum}
}

// UnmarshalBinary deserializes a result.
func (res *Result) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	res.Kind = Kind(r.Uvarint())
	res.Proof = r.Blob()
	res.Public = r.Elems()
	if err := r.Done(); err != nil {
		return fmt.Errorf("jobs: decode result: %w: %w: %w",
			err, ErrBadRequest, prooferr.ErrMalformedProof)
	}
	return nil
}

// Job is a compiled, ready-to-prove request. Compiling up front lets the
// server validate and admission-check a request synchronously (HTTP 400
// / 422 at submit time) and run only the prove on the scheduler.
type Job struct {
	req *Request

	// KindPlonk:
	circuit *plonk.Circuit
	wit     *plonk.Witness
	pub     []field.Element

	// KindStark:
	stark *stark.Stark
	cols  [][]field.Element
}

// Compile validates the request and builds its circuit or trace.
func Compile(req *Request) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	j := &Job{req: req}
	switch req.Kind {
	case KindPlonk:
		w, err := workloads.ByName(req.Workload)
		if err != nil {
			return nil, fmt.Errorf("%w: %w: %w", err, ErrBadRequest, prooferr.ErrMalformedProof)
		}
		j.circuit, j.wit, j.pub, err = w.Build(req.LogRows, fri.PlonkyConfig())
		if err != nil {
			return nil, fmt.Errorf("%w: %w", err, ErrBuild)
		}
	case KindStark:
		w, err := workloads.StarkByName(req.Workload)
		if err != nil {
			return nil, fmt.Errorf("%w: %w: %w", err, ErrBadRequest, prooferr.ErrMalformedProof)
		}
		j.stark, j.cols, err = w.Build(req.LogRows, fri.StarkyConfig())
		if err != nil {
			return nil, fmt.Errorf("%w: %w", err, ErrBuild)
		}
		if len(req.Payload) > 0 {
			j.cols, err = decodeTrace(req.Payload, j.stark)
			if err != nil {
				return nil, err
			}
		}
	}
	return j, nil
}

// decodeTrace decodes a wire-encoded column-major trace and checks it
// against the AIR's dimensions before any of it is used.
func decodeTrace(payload []byte, s *stark.Stark) ([][]field.Element, error) {
	r := wire.NewReader(payload)
	width := r.Len()
	if r.Err() == nil && width != s.Width {
		return nil, fmt.Errorf("jobs: trace payload has %d columns, AIR width is %d: %w: %w",
			width, s.Width, ErrBadRequest, prooferr.ErrMalformedProof)
	}
	cols := make([][]field.Element, 0, s.Width)
	for i := 0; i < width && r.Err() == nil; i++ {
		col := r.Elems()
		if r.Err() == nil && len(col) != s.N {
			return nil, fmt.Errorf("jobs: trace column %d has %d rows, want %d: %w: %w",
				i, len(col), s.N, ErrBadRequest, prooferr.ErrMalformedProof)
		}
		cols = append(cols, col)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("jobs: decode trace payload: %w: %w: %w",
			err, ErrBadRequest, prooferr.ErrMalformedProof)
	}
	return cols, nil
}

// ReuseFor derives a ready-to-prove job for req from an already-compiled
// job, skipping circuit construction. The receiver must have been
// compiled for the same (kind, workload, logRows) triple; req is
// validated the same way Compile validates it. The expensive frozen
// artifacts are shared — the plonk circuit (read-only during proving:
// the witness reads its frozen copy-class table) and the stark AIR —
// while anything proving mutates is private to the derived job: the
// plonk witness is cloned (generators write into its value slice; the
// clone is never pooled or handed back), and a stark payload is
// decoded fresh so the base job's generated trace is never aliased by a
// payload-overridden request. The derived job proves bit-identically to
// a Compile of the same request.
func (j *Job) ReuseFor(req *Request) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.Kind != j.req.Kind || req.Workload != j.req.Workload || req.LogRows != j.req.LogRows {
		return nil, fmt.Errorf("jobs: reuse of (%s, %s, 2^%d) for (%s, %s, 2^%d): %w: %w",
			j.req.Kind, j.req.Workload, j.req.LogRows,
			req.Kind, req.Workload, req.LogRows,
			ErrBadRequest, prooferr.ErrMalformedProof)
	}
	d := &Job{req: req}
	switch req.Kind {
	case KindPlonk:
		d.circuit = j.circuit
		d.wit = j.wit.Clone()
		d.pub = j.pub
	case KindStark:
		d.stark = j.stark
		if len(req.Payload) > 0 {
			cols, err := decodeTrace(req.Payload, j.stark)
			if err != nil {
				return nil, err
			}
			d.cols = cols
		} else {
			// The generated trace is read-only during proving
			// (fri.CommitValues copies columns into pooled buffers), so the
			// base job's columns are safe to share across derived jobs.
			d.cols = j.cols
		}
	}
	return d, nil
}

// ResidentBytes is the heap a compiled job keeps alive, what a circuit
// registry holding it as a base pays: for plonk the circuit (selectors,
// σ, copy classes, committed constants, constraint programs), its
// witness and public inputs; for stark the AIR's program and the trace.
// Pooled per-proof scratch is not the job's and is not counted.
func (j *Job) ResidentBytes() int64 {
	if j.req.Kind == KindPlonk {
		return j.circuit.ResidentBytes() + j.wit.ResidentBytes() +
			fri.ColumnBytes([][]field.Element{j.pub})
	}
	return j.stark.ResidentBytes() + fri.ColumnBytes(j.cols)
}

// Describe returns the one-line build summary cmd/prove prints.
func (j *Job) Describe() string {
	switch j.req.Kind {
	case KindPlonk:
		return fmt.Sprintf("circuit: %s, %d rows (2^%d), %d public inputs",
			j.req.Workload, j.circuit.N, j.circuit.LogN, j.circuit.NumPublic)
	default:
		return fmt.Sprintf("trace: %s, %d rows (2^%d), width %d",
			j.req.Workload, j.stark.N, j.stark.LogN, j.stark.Width)
	}
}

// SecurityBits is the compiled proof's soundness in bits, FRI and PIOP
// terms together.
func (j *Job) SecurityBits() int {
	if j.req.Kind == KindPlonk {
		return j.circuit.SecurityBits()
	}
	return j.stark.SecurityBits()
}

// Prove runs the job under ctx. Cancellation and deadlines propagate
// through ProveContext into every parallel kernel (DESIGN.md §9), so a
// canceled job releases its workers promptly.
func (j *Job) Prove(ctx context.Context) (*Result, error) {
	switch j.req.Kind {
	case KindPlonk:
		proof, err := j.circuit.ProveContext(ctx, j.wit, nil)
		if err != nil {
			return nil, err
		}
		raw, err := proof.MarshalBinary()
		if err != nil {
			return nil, err
		}
		return &Result{Kind: KindPlonk, Proof: raw, Public: j.pub}, nil
	default:
		proof, err := j.stark.ProveContext(ctx, j.cols, nil)
		if err != nil {
			return nil, err
		}
		raw, err := proof.MarshalBinary()
		if err != nil {
			return nil, err
		}
		return &Result{Kind: KindStark, Proof: raw}, nil
	}
}

// Check verifies a result against the compiled job: the proof must
// decode, verify under the job's verification key or AIR, and (for
// Plonk) bind exactly the job's expected public inputs.
func (j *Job) Check(res *Result) error {
	if res.Kind != j.req.Kind {
		return fmt.Errorf("jobs: result kind %s does not match request kind %s: %w: %w",
			res.Kind, j.req.Kind, ErrBadRequest, prooferr.ErrMalformedProof)
	}
	switch j.req.Kind {
	case KindPlonk:
		if len(res.Public) != len(j.pub) {
			return fmt.Errorf("jobs: result has %d public inputs, want %d: %w: %w",
				len(res.Public), len(j.pub), ErrBadRequest, prooferr.ErrMalformedProof)
		}
		for i := range j.pub {
			if res.Public[i] != j.pub[i] {
				return fmt.Errorf("jobs: public input %d mismatch: %w",
					i, prooferr.ErrProofRejected)
			}
		}
		var proof plonk.Proof
		if err := proof.UnmarshalBinary(res.Proof); err != nil {
			return err
		}
		return plonk.Verify(j.circuit.VerificationKey(), j.pub, &proof)
	default:
		var proof stark.Proof
		if err := proof.UnmarshalBinary(res.Proof); err != nil {
			return err
		}
		return j.stark.Verify(&proof)
	}
}

// Execute compiles and proves a request in one step: the direct,
// serviceless proof that tests hold a served proof against. cmd/prove
// does not use it: it calls Compile and then Prove, to print the job's
// description and soundness between the two.
func Execute(ctx context.Context, req *Request) (*Result, error) {
	j, err := Compile(req)
	if err != nil {
		return nil, err
	}
	return j.Prove(ctx)
}

// CheckResult recompiles the request and verifies the result against it
// — what cmd/prove -remote does with proof bytes returned by a server.
func CheckResult(req *Request, res *Result) error {
	j, err := Compile(req)
	if err != nil {
		return err
	}
	return j.Check(res)
}
