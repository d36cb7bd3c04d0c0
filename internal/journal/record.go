// Journal record encoding. Every record is one wire-encoded payload
// (internal/wire: uvarint lengths, little-endian words) framed by the
// segment writer with a length + CRC32-C header. The record set mirrors
// the coordinator's externally observable state transitions — what was
// acknowledged to a client must be reconstructible from these records
// alone. See DESIGN.md §16.
package journal

import (
	"crypto/sha256"
	"fmt"

	"unizk/internal/wire"
)

// Type tags one journal record. The numeric values are part of the
// on-disk format and must never be reused.
type Type uint8

const (
	// TypeAdmitted: a job passed admission and is about to be
	// acknowledged to the client. Written before the in-memory
	// registration so an acked job is always recoverable.
	TypeAdmitted Type = 1
	// TypeDispatched: the coordinator is about to submit the job to a
	// node. Written before the submit attempt, so replay over-counts
	// rather than under-counts dispatch attempts (the safe side of the
	// re-dispatch invariant).
	TypeDispatched Type = 2
	// TypeCommitted: the job reached a successful terminal state with a
	// result, carried as its encoded bytes. A committed record that also
	// carries admission fields admits the job in the same record (a
	// proof-cache hit, minted done).
	TypeCommitted Type = 3
	// TypeCanceled: the job reached a failed/canceled terminal state, or
	// an admission lost the under-lock idempotency race after its
	// Admitted record was already durable (ClassSuperseded).
	TypeCanceled Type = 4
	// TypeIdem: an idempotency binding. Older builds wrote it; replay
	// ignores it, because the admitted record already carries the key.
	TypeIdem Type = 5
	// TypeSnapshotInline: a full State image in which every job carries
	// its result bytes inline. Older builds wrote it; it is only
	// replayed.
	TypeSnapshotInline Type = 6
	// TypeEpoch: the persisted coordinator epoch, appended once per
	// process start after replay.
	TypeEpoch Type = 7
	// TypeCommittedRef: TypeCommitted with the result named by the
	// SHA-256 of its encoded bytes instead of carrying them. The journal
	// writes it only when a committed record with those bytes is already
	// in the chain, since the last snapshot or inside it.
	TypeCommittedRef Type = 8
	// TypeSnapshot: a full State image holding each distinct result once,
	// in a table the jobs index into; always the first record of a fresh
	// segment, written by Compact before older segments are
	// deleted.
	TypeSnapshot Type = 9
)

func (t Type) String() string {
	switch t {
	case TypeAdmitted:
		return "admitted"
	case TypeDispatched:
		return "dispatched"
	case TypeCommitted:
		return "committed"
	case TypeCanceled:
		return "canceled"
	case TypeIdem:
		return "idem"
	case TypeSnapshotInline:
		return "snapshot-inline"
	case TypeEpoch:
		return "epoch"
	case TypeCommittedRef:
		return "committed-ref"
	case TypeSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// ClassSuperseded marks a Canceled record for a job whose Admitted
// record became durable but which lost the under-lock idempotency
// recheck to a concurrent duplicate: the job was never acknowledged
// under its own id, so replay must not resurrect it.
const ClassSuperseded = "superseded"

// Record is one journal entry. It is a tagged union: Type selects which
// fields are meaningful (and encoded); the rest stay zero.
type Record struct {
	Type Type

	// ID is the coordinator job id (all job-lifecycle records).
	ID string

	// Admitted: the marshaled jobs.Request, effective priority, the
	// admission deadline budget, and the owning tenant name. Committed
	// and committed-ref records carry them too when they admit the job
	// (Req non-empty), submitted at TimeNS.
	Req       []byte
	Priority  int64
	TimeoutNS int64
	Tenant    string

	// TimeNS is the event instant (admission, completion) as UnixNano.
	TimeNS int64

	// Dispatched: the target node's base URL. Committed: the node URL
	// and /healthz node id that produced the result.
	Node   string
	NodeID string

	// Committed: the marshaled jobs.Result, and Sum, the SHA-256 of
	// those bytes. Sum is not encoded in a committed record: Append reads
	// it to decide whether to write a committed-ref instead (a zero Sum
	// always writes the bytes), and replay recomputes it. A committed-ref
	// record carries only Sum.
	Result []byte
	Sum    [32]byte

	// Canceled: the terminal classification. Failed distinguishes a
	// failure from a cancellation; Class/Code are the HTTP error class
	// and status the coordinator reported, so a replayed terminal error
	// keeps its original classification.
	Class  string
	Msg    string
	Failed bool
	Code   int64

	// Snapshot: a wire-encoded State (EncodeState/DecodeState; the
	// inline image has its own decoder).
	State []byte

	// Epoch: the persisted coordinator epoch.
	Epoch uint64
}

// EncodeTo appends the record's wire encoding.
func (rec *Record) EncodeTo(w *wire.Writer) error {
	w.Uvarint(uint64(rec.Type))
	switch rec.Type {
	case TypeAdmitted:
		w.Str(rec.ID)
		w.Blob(rec.Req)
		w.U64(uint64(rec.Priority))
		w.U64(uint64(rec.TimeoutNS))
		w.Str(rec.Tenant)
		w.U64(uint64(rec.TimeNS))
	case TypeDispatched:
		w.Str(rec.ID)
		w.Str(rec.Node)
	case TypeCommitted, TypeCommittedRef:
		w.Str(rec.ID)
		if rec.Type == TypeCommitted {
			w.Blob(rec.Result)
		} else {
			w.Blob(rec.Sum[:])
		}
		w.Str(rec.Node)
		w.Str(rec.NodeID)
		w.U64(uint64(rec.TimeNS))
		if len(rec.Req) > 0 {
			// Optional trailer, absent from older committed records.
			w.Blob(rec.Req)
			w.U64(uint64(rec.Priority))
			w.U64(uint64(rec.TimeoutNS))
			w.Str(rec.Tenant)
		}
	case TypeCanceled:
		w.Str(rec.ID)
		w.Str(rec.Class)
		w.Str(rec.Msg)
		if rec.Failed {
			w.Uvarint(1)
		} else {
			w.Uvarint(0)
		}
		w.U64(uint64(rec.Code))
		w.U64(uint64(rec.TimeNS))
	case TypeSnapshot, TypeSnapshotInline:
		w.Blob(rec.State)
	case TypeEpoch:
		w.Uvarint(rec.Epoch)
	default:
		return fmt.Errorf("journal: cannot encode record type %d", rec.Type)
	}
	return nil
}

// MarshalBinary encodes the record as a standalone payload.
func (rec *Record) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	if err := rec.EncodeTo(&w); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// DecodeRecord parses one record payload, rejecting unknown types,
// malformed fields, and trailing bytes — any of which the replayer
// treats as corruption.
func DecodeRecord(data []byte) (*Record, error) {
	r := wire.NewReader(data)
	rec := &Record{Type: Type(r.Uvarint())}
	switch rec.Type {
	case TypeAdmitted:
		rec.ID = r.Str()
		rec.Req = r.Blob()
		rec.Priority = int64(r.U64())
		rec.TimeoutNS = int64(r.U64())
		rec.Tenant = r.Str()
		rec.TimeNS = int64(r.U64())
	case TypeDispatched:
		rec.ID = r.Str()
		rec.Node = r.Str()
	case TypeCommitted, TypeCommittedRef:
		rec.ID = r.Str()
		if rec.Type == TypeCommitted {
			rec.Result = r.Blob()
		} else {
			sum := r.Blob()
			if r.Err() == nil && len(sum) != len(rec.Sum) {
				return nil, fmt.Errorf("journal: result digest is %d bytes, want %d", len(sum), len(rec.Sum))
			}
			copy(rec.Sum[:], sum)
		}
		rec.Node = r.Str()
		rec.NodeID = r.Str()
		rec.TimeNS = int64(r.U64())
		if r.More() {
			rec.Req = r.Blob()
			rec.Priority = int64(r.U64())
			rec.TimeoutNS = int64(r.U64())
			rec.Tenant = r.Str()
			if r.Err() == nil && len(rec.Req) == 0 {
				return nil, fmt.Errorf("journal: %v record admits an empty request", rec.Type)
			}
		}
	case TypeCanceled:
		rec.ID = r.Str()
		rec.Class = r.Str()
		rec.Msg = r.Str()
		rec.Failed = r.Uvarint() != 0
		rec.Code = int64(r.U64())
		rec.TimeNS = int64(r.U64())
	case TypeIdem:
		// Read to validate the frame, then dropped: key, fingerprint,
		// job id, expiry.
		r.Str()
		if fp := r.Blob(); r.Err() == nil && len(fp) != sha256.Size {
			return nil, fmt.Errorf("journal: idem fingerprint is %d bytes, want %d", len(fp), sha256.Size)
		}
		r.Str()
		r.U64()
	case TypeSnapshot, TypeSnapshotInline:
		rec.State = r.Blob()
	case TypeEpoch:
		rec.Epoch = r.Uvarint()
	default:
		return nil, fmt.Errorf("journal: unknown record type %d", rec.Type)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return rec, nil
}
