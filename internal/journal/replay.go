// Journal replay and torn-write recovery. Replay scans the segments in
// order, validates every frame (length bound, CRC32-C, record decode),
// and applies each record. The first bad frame ends the replay: the
// unreadable tail is quarantined next to the segment (never deleted —
// it is forensic evidence), the segment is truncated to its last good
// frame, and any later whole segments are quarantined too. Replay never
// panics on corrupt input and never refuses startup over it; the cost
// of a torn write is bounded to the un-acked suffix.
package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"time"
)

// Replay scans and applies every intact record, truncates a corrupt or
// torn tail, and arms the journal for appending. It must be called
// exactly once after Open — on a fresh directory it applies nothing and
// creates the first segment.
func (j *Journal) Replay(apply func(*Record)) error {
	_, err := j.replay(apply)
	return err
}

// Rebuild replays the journal into a fresh State — the one-call
// recovery entry point used by the coordinator at startup.
func Rebuild(j *Journal) (*State, error) {
	return j.replay(nil)
}

// replay is Replay that also returns the fold of the records it applied
// (apply may be nil). The fold's result table is the known set: the
// results whose bytes the chain holds, which appends after replay name
// by digest.
func (j *Journal) replay(apply func(*Record)) (*State, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil, ErrClosed
	}
	if j.replayed {
		j.mu.Unlock()
		return nil, fmt.Errorf("journal: Replay called twice")
	}
	j.mu.Unlock()

	start := time.Now()
	segs, err := j.listSegments()
	if err != nil {
		return nil, err
	}
	live := segs[:0]
	corrupted := false
	st := NewState()
	fold := func(rec *Record) {
		st.Apply(rec)
		if apply != nil {
			apply(rec)
		}
		j.st.recordsReplayed.Add(1)
	}
	for _, seg := range segs {
		if corrupted {
			// Everything after a truncated tail is unreachable history:
			// frames beyond the cut may depend on records that were never
			// durable. Quarantine whole.
			if err := os.Rename(seg.path, seg.path+".quarantine"); err != nil {
				return nil, fmt.Errorf("journal: %w", err)
			}
			j.st.truncatedTails.Add(1)
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		if off := scan(data, fold); off < len(data) {
			// Torn or corrupt: preserve the bad bytes, then cut the
			// segment back to its last good frame.
			if werr := os.WriteFile(seg.path+".quarantine", data[off:], 0o644); werr != nil {
				return nil, fmt.Errorf("journal: %w", werr)
			}
			if terr := os.Truncate(seg.path, int64(off)); terr != nil {
				return nil, fmt.Errorf("journal: %w", terr)
			}
			j.st.truncatedTails.Add(1)
			corrupted = true
		}
		live = append(live, seg)
	}
	if len(live) == 0 {
		live = append(live, segFile{seq: 1, path: j.segPath(1)})
	}
	tail := live[len(live)-1]
	f, err := os.OpenFile(tail.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}

	j.mu.Lock()
	j.f = f
	j.segs = append([]segFile(nil), live...)
	j.size = fi.Size()
	j.known = make(map[[32]byte]struct{}, len(st.results))
	for sum := range st.results {
		j.known[sum] = struct{}{}
	}
	j.replayed = true
	j.mu.Unlock()
	j.st.setReplayDuration(time.Since(start))
	return st, nil
}

// scan applies, in order, every intact frame at the head of data and
// returns the length of that intact prefix: len(data) unless a frame
// is torn or corrupt.
func scan(data []byte, apply func(*Record)) int {
	off := 0
	for off < len(data) {
		rec, n, ok := parseFrame(data[off:])
		if !ok {
			break
		}
		apply(rec)
		off += n
	}
	return off
}

// parseFrame validates one frame at the head of b, returning the
// decoded record and the frame's total length. ok=false flags a torn or
// corrupt frame (short header, absurd length, truncated payload, CRC
// mismatch, undecodable record). A committed record gets its Sum, which
// the encoding leaves out, so no fold hashes its bytes again.
func parseFrame(b []byte) (*Record, int, bool) {
	if len(b) < frameHeader {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(b)
	sum := binary.LittleEndian.Uint32(b[4:])
	if n == 0 || n > maxRecord || int(n) > len(b)-frameHeader {
		return nil, 0, false
	}
	payload := b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, false
	}
	rec, err := DecodeRecord(payload)
	if err != nil {
		return nil, 0, false
	}
	if rec.Type == TypeCommitted {
		rec.Sum = sha256.Sum256(rec.Result)
	}
	return rec, frameHeader + int(n), true
}

// JobRecord is one job's replayed lifecycle — everything the
// coordinator needs to restore the job as retained (terminal) or to
// re-register and re-dispatch it (non-terminal).
type JobRecord struct {
	ID          string
	Req         []byte
	Priority    int64
	TimeoutNS   int64
	Tenant      string
	SubmittedNS int64

	// Dispatches counts TypeDispatched records: how many node submits
	// were attempted pre-crash. Recovery turns surplus dispatches into
	// recorded re-dispatch credits so the exactly-once accounting
	// (unique proves ≤ invocations ≤ unique + re-dispatches) survives a
	// restart.
	Dispatches int64
	Node       string

	Terminal bool
	Failed   bool
	Canceled bool
	Class    string
	Msg      string
	Code     int64
	Result   []byte
	// ResultSum is the SHA-256 of Result.
	ResultSum  [32]byte
	DoneNode   string
	DoneNodeID string
	FinishedNS int64
}

// State is the replayed coordinator state: the epoch and every known
// job in admission order. It is also the snapshot payload
// (EncodeState/DecodeState).
type State struct {
	Epoch uint64
	Order []string
	Jobs  map[string]*JobRecord

	// results holds every result the chain carries, by digest: what a
	// committed-ref record resolves against.
	results map[[32]byte][]byte
}

// NewState returns an empty state ready for Apply.
func NewState() *State {
	return &State{Jobs: make(map[string]*JobRecord), results: make(map[[32]byte][]byte)}
}

// Apply folds one record into the state. Records referencing unknown or
// already-terminal jobs are ignored: after a tail truncation the stream
// may legitimately lose prefixes, and replay must stay total.
func (st *State) Apply(rec *Record) {
	switch rec.Type {
	case TypeAdmitted:
		if _, ok := st.Jobs[rec.ID]; ok {
			return
		}
		st.Jobs[rec.ID] = &JobRecord{
			ID:          rec.ID,
			Req:         rec.Req,
			Priority:    rec.Priority,
			TimeoutNS:   rec.TimeoutNS,
			Tenant:      rec.Tenant,
			SubmittedNS: rec.TimeNS,
		}
		st.Order = append(st.Order, rec.ID)
	case TypeDispatched:
		if job := st.Jobs[rec.ID]; job != nil && !job.Terminal {
			job.Dispatches++
			job.Node = rec.Node
		}
	case TypeCommitted, TypeCommittedRef:
		sum, raw := rec.Sum, rec.Result
		if rec.Type == TypeCommitted {
			// The bytes are in the chain whichever job they commit.
			if sum == ([32]byte{}) {
				sum = sha256.Sum256(raw)
			}
			if st.results == nil {
				st.results = make(map[[32]byte][]byte)
			}
			st.results[sum] = raw
		} else if raw = st.results[sum]; raw == nil {
			// A ref never reaches the disk ahead of its bytes; without
			// them the record restores nothing.
			return
		}
		if len(rec.Req) > 0 {
			st.Apply(&Record{Type: TypeAdmitted, ID: rec.ID, Req: rec.Req, Priority: rec.Priority,
				TimeoutNS: rec.TimeoutNS, Tenant: rec.Tenant, TimeNS: rec.TimeNS})
		}
		if job := st.Jobs[rec.ID]; job != nil && !job.Terminal {
			job.Terminal = true
			job.Result = raw
			job.ResultSum = sum
			job.DoneNode = rec.Node
			job.DoneNodeID = rec.NodeID
			job.FinishedNS = rec.TimeNS
		}
	case TypeCanceled:
		// A superseded job was never acknowledged under its own id, even
		// when the record that admitted it also committed it.
		if job := st.Jobs[rec.ID]; job != nil && (!job.Terminal || rec.Class == ClassSuperseded) {
			job.Terminal = true
			job.Failed = rec.Failed
			job.Canceled = !rec.Failed
			job.Class = rec.Class
			job.Msg = rec.Msg
			job.Code = rec.Code
			job.FinishedNS = rec.TimeNS
		}
	case TypeSnapshot, TypeSnapshotInline:
		decode := DecodeState
		if rec.Type == TypeSnapshotInline {
			decode = decodeStateInline
		}
		if ns, err := decode(rec.State); err == nil {
			*st = *ns
		}
		// An undecodable snapshot payload inside a CRC-valid frame means
		// the writer was buggy, not the disk; keep folding the tail into
		// whatever state we have rather than refusing startup.
	case TypeEpoch:
		if rec.Epoch > st.Epoch {
			st.Epoch = rec.Epoch
		}
	}
}

// retain drops what a snapshot image need not hold: superseded jobs,
// never acknowledged, and every finished job but the keep that finished
// last, ties broken by admission order. Unfinished jobs all stay.
func (st *State) retain(keep int) {
	var finished []*JobRecord
	for _, id := range st.Order {
		switch job := st.Jobs[id]; {
		case job.Class == ClassSuperseded:
			delete(st.Jobs, id)
		case job.Terminal:
			finished = append(finished, job)
		}
	}
	sort.SliceStable(finished, func(a, b int) bool { return finished[a].FinishedNS < finished[b].FinishedNS })
	for _, job := range finished[:max(len(finished)-keep, 0)] {
		delete(st.Jobs, job.ID)
	}
	order := st.Order[:0]
	for _, id := range st.Order {
		if st.Jobs[id] != nil {
			order = append(order, id)
		}
	}
	st.Order = order
}
