// Snapshot payload codec. A snapshot is a full State image encoded with
// internal/wire, carried inside a TypeSnapshot record at the head of a
// fresh segment; replay substitutes it for all prior history. The image
// opens with a table of the distinct results its jobs hold, each stored
// once with its SHA-256, and every job names its result by table index:
// a thousand retained jobs that served one cached proof store it once.
package journal

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"unizk/internal/wire"
)

// result is one snapshot table entry: a job result's encoded bytes and
// their SHA-256.
type result struct {
	sum [32]byte
	raw []byte
}

// resultSum is the digest of job's result, from ResultSum when the
// caller filled it in.
func resultSum(job *JobRecord) [32]byte {
	if job.ResultSum != ([32]byte{}) {
		return job.ResultSum
	}
	return sha256.Sum256(job.Result)
}

// EncodeState serializes a snapshot payload. Jobs are emitted in Order;
// ids in Order without a job entry are skipped (they cannot be
// restored), and jobs missing from Order are appended in sorted-id
// order so the image is deterministic and total.
func EncodeState(st *State) []byte {
	data, _ := encodeState(st)
	return data
}

// encodeState is EncodeState that also returns the digests of the
// result table: the results the image holds.
func encodeState(st *State) ([]byte, [][32]byte) {
	ids := make([]string, 0, len(st.Jobs))
	seen := make(map[string]bool, len(st.Jobs))
	for _, id := range st.Order {
		if st.Jobs[id] != nil && !seen[id] {
			ids = append(ids, id)
			seen[id] = true
		}
	}
	var extra []string
	for id := range st.Jobs {
		if !seen[id] {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	ids = append(ids, extra...)

	// Index 0 means no result; table entry i is index i+1.
	var table []result
	index := make(map[[32]byte]uint64)
	refs := make([]uint64, len(ids))
	size := 0
	for i, id := range ids {
		job := st.Jobs[id]
		if len(job.Result) == 0 {
			continue
		}
		sum := resultSum(job)
		if _, ok := index[sum]; !ok {
			table = append(table, result{sum: sum, raw: job.Result})
			index[sum] = uint64(len(table))
			size += len(job.Result)
		}
		refs[i] = index[sum]
	}

	var w wire.Writer
	w.Grow(size + 64*len(table) + 256*len(ids))
	sums := make([][32]byte, len(table))
	w.Len(len(table))
	for i, e := range table {
		w.Blob(e.sum[:])
		w.Blob(e.raw)
		sums[i] = e.sum
	}
	w.Uvarint(st.Epoch)
	w.Len(len(ids))
	for i, id := range ids {
		encodeJob(&w, st.Jobs[id], refs[i])
	}
	// The idempotency section older builds filled, kept empty so they
	// can still read the image.
	w.Len(0)
	return w.Bytes(), sums
}

// Job flag bits inside the snapshot encoding.
const (
	jobFlagTerminal = 1 << iota
	jobFlagFailed
	jobFlagCanceled
)

// encodeJob writes one job with its result as table index ref.
func encodeJob(w *wire.Writer, job *JobRecord, ref uint64) {
	w.Str(job.ID)
	w.Blob(job.Req)
	w.U64(uint64(job.Priority))
	w.U64(uint64(job.TimeoutNS))
	w.Str(job.Tenant)
	w.U64(uint64(job.SubmittedNS))
	w.Uvarint(uint64(job.Dispatches))
	w.Str(job.Node)
	flags := uint64(0)
	if job.Terminal {
		flags |= jobFlagTerminal
	}
	if job.Failed {
		flags |= jobFlagFailed
	}
	if job.Canceled {
		flags |= jobFlagCanceled
	}
	w.Uvarint(flags)
	w.Str(job.Class)
	w.Str(job.Msg)
	w.U64(uint64(job.Code))
	w.Uvarint(ref)
	w.Str(job.DoneNode)
	w.Str(job.DoneNodeID)
	w.U64(uint64(job.FinishedNS))
}

// decodeTable reads the result table that opens a snapshot payload.
func decodeTable(r *wire.Reader) ([]result, error) {
	n := r.Len()
	var table []result
	for i := 0; i < n && r.Err() == nil; i++ {
		var e result
		sum := r.Blob()
		if r.Err() == nil && len(sum) != len(e.sum) {
			return nil, fmt.Errorf("journal: snapshot result digest is %d bytes, want %d", len(sum), len(e.sum))
		}
		copy(e.sum[:], sum)
		e.raw = r.Blob()
		table = append(table, e)
	}
	return table, r.Err()
}

// DecodeState parses a snapshot payload.
func DecodeState(data []byte) (*State, error) {
	r := wire.NewReader(data)
	table, err := decodeTable(r)
	if err != nil {
		return nil, err
	}
	return decodeStateBody(r, table, func(job *JobRecord) error {
		ref := r.Uvarint()
		switch {
		case ref == 0:
		case ref > uint64(len(table)):
			return fmt.Errorf("journal: snapshot job %s names result %d of %d", job.ID, ref, len(table))
		default:
			job.Result, job.ResultSum = table[ref-1].raw, table[ref-1].sum
		}
		return nil
	})
}

// decodeStateInline parses a TypeSnapshotInline payload, whose jobs
// carry their result bytes.
func decodeStateInline(data []byte) (*State, error) {
	r := wire.NewReader(data)
	return decodeStateBody(r, nil, func(job *JobRecord) error {
		if job.Result = r.Blob(); len(job.Result) > 0 {
			job.ResultSum = sha256.Sum256(job.Result)
		}
		return nil
	})
}

// decodeStateBody parses what follows the result table: the epoch, the
// jobs (reading each job's result through readResult) and the
// idempotency section, whose entries older builds wrote and replay
// drops. The table becomes the state's result index.
func decodeStateBody(r *wire.Reader, table []result, readResult func(*JobRecord) error) (*State, error) {
	st := NewState()
	for _, e := range table {
		st.results[e.sum] = e.raw
	}
	st.Epoch = r.Uvarint()
	nJobs := r.Len()
	for i := 0; i < nJobs && r.Err() == nil; i++ {
		job, err := decodeJob(r, readResult)
		if err != nil {
			return nil, err
		}
		if r.Err() != nil {
			break
		}
		st.Jobs[job.ID] = job
		st.Order = append(st.Order, job.ID)
	}
	nIdem := r.Len()
	for i := 0; i < nIdem && r.Err() == nil; i++ {
		// Key, fingerprint, job id, expiry.
		r.Str()
		if fp := r.Blob(); r.Err() == nil && len(fp) != sha256.Size {
			return nil, fmt.Errorf("journal: snapshot idem fingerprint is %d bytes, want %d", len(fp), sha256.Size)
		}
		r.Str()
		r.U64()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

func decodeJob(r *wire.Reader, readResult func(*JobRecord) error) (*JobRecord, error) {
	job := &JobRecord{}
	job.ID = r.Str()
	job.Req = r.Blob()
	job.Priority = int64(r.U64())
	job.TimeoutNS = int64(r.U64())
	job.Tenant = r.Str()
	job.SubmittedNS = int64(r.U64())
	job.Dispatches = int64(r.Uvarint())
	job.Node = r.Str()
	flags := r.Uvarint()
	job.Terminal = flags&jobFlagTerminal != 0
	job.Failed = flags&jobFlagFailed != 0
	job.Canceled = flags&jobFlagCanceled != 0
	job.Class = r.Str()
	job.Msg = r.Str()
	job.Code = int64(r.U64())
	if err := readResult(job); err != nil {
		return nil, err
	}
	job.DoneNode = r.Str()
	job.DoneNodeID = r.Str()
	job.FinishedNS = int64(r.U64())
	return job, nil
}
