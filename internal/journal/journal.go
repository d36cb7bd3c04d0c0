// Package journal is the coordinator's write-ahead log: an append-only,
// CRC-framed, segment-rotating record stream with a configurable fsync
// policy and snapshot+compaction, built on the internal/wire encoding.
//
// The contract is journal-before-ack: a state transition is appended
// (and, per the fsync policy, made durable) before it is acknowledged
// to a client, so replaying the newest snapshot plus the segment tail
// reconstructs every acknowledged job and its terminal result. Frames
// are written directly to the segment file — never through a userspace
// buffer — so even with fsync off a SIGKILL loses nothing that reached
// the kernel; fsync policies only widen the protection to OS/power
// failure. See DESIGN.md §16.
//
// Lifecycle: Open → Replay (exactly once, even on a fresh directory) →
// Append/Compact → Close.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"unizk/internal/wire"
)

// Fsync policies. The zero value is FsyncBatch: group commit — an
// Append returns once a background fsync covers it, so concurrent
// appenders share each fsync's cost.
type Policy int

const (
	// FsyncBatch groups concurrent appends under one fsync (group
	// commit). Durable against power loss, amortized cost.
	FsyncBatch Policy = iota
	// FsyncAlways fsyncs every record before Append returns. Maximum
	// durability, one disk flush per record.
	FsyncAlways
	// FsyncOff never fsyncs on append. Records still reach the kernel
	// synchronously (SIGKILL-safe); an OS crash can lose the tail.
	FsyncOff
)

func (p Policy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps the -fsync flag values {always,batch,off}.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "batch", "":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	default:
		return FsyncBatch, fmt.Errorf("journal: unknown fsync policy %q (want always, batch, or off)", s)
	}
}

// Options sizes a journal. The zero value is usable.
type Options struct {
	// Fsync is the append durability policy. Default FsyncBatch.
	Fsync Policy
	// SegmentBytes rotates the active segment once it exceeds this
	// size. Default 8 MiB.
	SegmentBytes int64
	// SnapshotEvery makes SnapshotDue report true after that many
	// records since the last snapshot, bounding replay cost. Default
	// 4096; negative disables the snapshot cadence.
	SnapshotEvery int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	return o
}

// Framing: u32 LE payload length, u32 LE CRC32-C of the payload, then
// the payload. maxRecord bounds a frame against corrupt lengths.
const (
	frameHeader = 8
	maxRecord   = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed rejects appends after Close.
var ErrClosed = errors.New("journal: closed")

// errNotReplayed enforces the Open → Replay → Append ordering: an
// append before replay could interleave new frames into an unexamined
// tail.
var errNotReplayed = errors.New("journal: Replay must run before Append")

// segFile is one on-disk segment.
type segFile struct {
	seq  int
	path string
}

// Journal is an open write-ahead log. All methods are safe for
// concurrent use.
type Journal struct {
	dir  string
	opts Options
	st   stats

	// syncCond signals batch-commit waiters on syncedSeq/syncErr
	// advances; it shares mu.
	syncCond *sync.Cond
	// syncReq nudges the syncer goroutine; buffered(1) so a pending
	// nudge coalesces concurrent appends into one fsync.
	syncReq    chan struct{}
	syncerDone chan struct{}

	mu sync.Mutex
	//unizklint:guardedby mu
	f *os.File
	//unizklint:guardedby mu
	segs []segFile
	//unizklint:guardedby mu
	size int64
	//unizklint:guardedby mu
	replayed bool
	//unizklint:guardedby mu
	closed bool
	//unizklint:guardedby mu
	writeSeq int64
	//unizklint:guardedby mu
	syncedSeq int64
	//unizklint:guardedby mu
	syncErr error
	//unizklint:guardedby mu
	sinceSnapshot int
	//unizklint:guardedby mu
	lastSnapshot time.Time
	// known holds the digests of the results whose bytes are in the
	// chain: written by a committed record since the last snapshot, or
	// held in its image. A committed record whose Sum is known is written
	// as a committed-ref.
	//unizklint:guardedby mu
	known map[[32]byte]struct{}
}

// Open prepares dir as a journal directory. No segment is read or
// written yet; call Replay (or Rebuild) next.
func Open(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		dir:        dir,
		opts:       opts.withDefaults(),
		syncReq:    make(chan struct{}, 1),
		syncerDone: make(chan struct{}),
	}
	j.syncCond = sync.NewCond(&j.mu)
	go j.syncLoop()
	return j, nil
}

// syncLoop is the group-commit worker: each nudge fsyncs the active
// segment once, covering every record written before the fsync started.
// It exits when Close closes syncReq (the channel-range is its
// lifecycle).
func (j *Journal) syncLoop() {
	defer close(j.syncerDone)
	for range j.syncReq {
		j.mu.Lock()
		target, f := j.writeSeq, j.f
		if f == nil || target <= j.syncedSeq {
			j.mu.Unlock()
			continue
		}
		j.mu.Unlock()
		// Sync outside the lock: appends to the same segment during the
		// flush simply ride the next nudge. Rotation cannot invalidate
		// target — rotateLocked syncs the outgoing file and advances
		// syncedSeq itself.
		start := time.Now()
		err := f.Sync()
		j.st.observeFsync(time.Since(start))
		j.mu.Lock()
		if err != nil {
			if j.syncErr == nil {
				j.syncErr = err
			}
		} else if target > j.syncedSeq {
			j.syncedSeq = target
		}
		j.syncCond.Broadcast()
		j.mu.Unlock()
	}
}

// segPath names segment seq. The zero-padded name keeps lexical and
// numeric order identical.
func (j *Journal) segPath(seq int) string {
	return filepath.Join(j.dir, fmt.Sprintf("seg-%08d.wal", seq))
}

// listSegments scans dir for live segments in replay order.
func (j *Journal) listSegments() ([]segFile, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []segFile
	for _, e := range entries {
		name := e.Name()
		var seq int
		if _, err := fmt.Sscanf(name, "seg-%d.wal", &seq); err != nil || !strings.HasSuffix(name, ".wal") {
			continue
		}
		segs = append(segs, segFile{seq: seq, path: filepath.Join(j.dir, name)})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].seq < segs[b].seq })
	return segs, nil
}

// frameOf encodes rec as one frame: the header, then the payload,
// encoded in place.
func frameOf(rec *Record) ([]byte, error) {
	var w wire.Writer
	w.Grow(frameHeader + len(rec.Req) + len(rec.Result) + len(rec.State) + 128)
	w.U64(0) // header, filled in below
	if err := rec.EncodeTo(&w); err != nil {
		return nil, err
	}
	frame := w.Bytes()
	payload := frame[frameHeader:]
	if len(payload) > maxRecord {
		return nil, fmt.Errorf("journal: record payload %d bytes exceeds limit", len(payload))
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	return frame, nil
}

// Append journals one record: frame, write, and make durable per the
// fsync policy. It returns only after the record has reached the
// kernel (any policy) and satisfied the policy's durability bar.
//
// A TypeCommitted record with a non-zero Sum whose bytes are already in
// the chain is written as a TypeCommittedRef. The choice is made under
// the journal's lock, where the write happens, so a ref always follows
// its bytes in the file: any durable prefix that holds the ref holds
// them too.
func (j *Journal) Append(rec *Record) error {
	shareable := rec.Type == TypeCommitted && rec.Sum != ([32]byte{})
	ref := shareable && j.isKnown(rec.Sum)
	for {
		enc := rec
		if ref {
			r := *rec
			r.Type, r.Result = TypeCommittedRef, nil
			enc = &r
		}
		frame, err := frameOf(enc)
		if err != nil {
			j.st.appendErrors.Add(1)
			return err
		}
		j.mu.Lock()
		if j.closed {
			j.mu.Unlock()
			return ErrClosed
		}
		if !j.replayed {
			j.mu.Unlock()
			return errNotReplayed
		}
		if _, ok := j.known[rec.Sum]; ref && !ok {
			// A snapshot dropped the bytes since the check: write them.
			j.mu.Unlock()
			ref = false
			continue
		}
		seq, err := j.writeLocked(frame)
		if err != nil {
			j.mu.Unlock()
			j.st.appendErrors.Add(1)
			return err
		}
		switch {
		case ref:
			j.st.resultsShared.Add(1)
		case shareable:
			j.known[rec.Sum] = struct{}{}
		}
		return j.awaitLocked(seq)
	}
}

// isKnown reports whether the bytes of the result with digest sum are in
// the chain.
func (j *Journal) isKnown(sum [32]byte) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.known[sum]
	return ok
}

// writeLocked writes one frame to the active segment, rotating first
// when the frame would overflow it, and returns the frame's sequence
// number.
//
//unizklint:holds j.mu
func (j *Journal) writeLocked(frame []byte) (int64, error) {
	if j.size > 0 && j.size+int64(len(frame)) > j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if _, err := j.f.Write(frame); err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	j.size += int64(len(frame))
	j.writeSeq++
	j.sinceSnapshot++
	j.st.recordsAppended.Add(1)
	j.st.bytesAppended.Add(int64(len(frame)))
	return j.writeSeq, nil
}

// awaitLocked makes the frame with sequence number seq durable per the
// fsync policy, and releases j.mu.
//
//unizklint:holds j.mu
func (j *Journal) awaitLocked(seq int64) error {
	switch j.opts.Fsync {
	case FsyncOff:
		j.mu.Unlock()
		return nil
	case FsyncAlways:
		// Serialized under mu: per-record durability is the point of
		// this policy, and rotation safety comes free.
		start := time.Now()
		err := j.f.Sync()
		j.st.observeFsync(time.Since(start))
		if err == nil && seq > j.syncedSeq {
			j.syncedSeq = seq
		}
		j.mu.Unlock()
		if err != nil {
			j.st.appendErrors.Add(1)
			return fmt.Errorf("journal: %w", err)
		}
		return nil
	default: // FsyncBatch
		select {
		case j.syncReq <- struct{}{}:
		default:
			// A nudge is already pending; the syncer will observe a
			// writeSeq >= seq when it runs.
		}
		for j.syncedSeq < seq && j.syncErr == nil && !j.closed {
			j.syncCond.Wait()
		}
		err := j.syncErr
		closedEarly := j.closed && j.syncedSeq < seq && err == nil
		j.mu.Unlock()
		if err != nil {
			j.st.appendErrors.Add(1)
			return fmt.Errorf("journal: %w", err)
		}
		if closedEarly {
			// Close fsyncs the tail itself; the record is durable, but
			// report the shutdown so the caller stops appending.
			return ErrClosed
		}
		return nil
	}
}

// rotateLocked seals the active segment (fsync, so compaction can never
// delete an unflushed predecessor) and opens the next one.
//
//unizklint:holds j.mu
func (j *Journal) rotateLocked() error {
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.syncedSeq = j.writeSeq
	j.syncCond.Broadcast()
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	next := j.segs[len(j.segs)-1].seq + 1
	f, err := os.OpenFile(j.segPath(next), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.size = 0
	j.segs = append(j.segs, segFile{seq: next, path: j.segPath(next)})
	return nil
}

// SnapshotDue reports whether the snapshot cadence has elapsed — the
// owner (the coordinator's snapshot loop) then calls Compact.
func (j *Journal) SnapshotDue() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.opts.SnapshotEvery > 0 && j.sinceSnapshot >= j.opts.SnapshotEvery
}

// Compact replaces the live segments with one snapshot of the state
// they hold. It folds them with the parse and State.Apply replay uses,
// drops superseded jobs and all but the keep finished jobs that
// finished last (ties in admission order; unfinished jobs all stay),
// and writes the image as the first record of a fresh segment, fsynced
// regardless of policy, before the older segments are deleted. It runs
// under the journal's lock, so the image holds every record appended
// before it and none that was never appended. A live frame that does
// not parse fails it before any segment is touched.
func (j *Journal) Compact(keep int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if !j.replayed {
		return errNotReplayed
	}
	st := NewState()
	for _, seg := range j.segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		if n := scan(data, st.Apply); n < len(data) {
			return fmt.Errorf("journal: %s: unreadable frame at offset %d", seg.path, n)
		}
	}
	st.retain(keep)
	image, sums := encodeState(st)
	return j.installLocked(image, sums)
}

// installLocked writes image as a snapshot record at the head of a
// fresh segment, fsyncs it, retires every older segment, and resets the
// known set to sums, the digests of the image's result table.
//
//unizklint:holds j.mu
func (j *Journal) installLocked(image []byte, sums [][32]byte) error {
	frame, err := frameOf(&Record{Type: TypeSnapshot, State: image})
	if err != nil {
		return err
	}
	next := j.segs[len(j.segs)-1].seq + 1
	path := j.segPath(next)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("journal: %w", err)
	}
	start := time.Now()
	err = f.Sync()
	j.st.observeFsync(time.Since(start))
	if err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("journal: %w", err)
	}
	// The snapshot is durable; retire the old segments. A crash between
	// these deletes is safe: replay applies the snapshot record, which
	// supersedes any surviving older segment.
	old := j.segs
	oldF := j.f
	j.f = f
	j.size = int64(len(frame))
	j.segs = []segFile{{seq: next, path: path}}
	j.writeSeq++
	j.syncedSeq = j.writeSeq
	j.sinceSnapshot = 0
	j.lastSnapshot = time.Now()
	j.known = make(map[[32]byte]struct{}, len(sums))
	for _, sum := range sums {
		j.known[sum] = struct{}{}
	}
	j.st.recordsAppended.Add(1)
	j.st.bytesAppended.Add(int64(len(frame)))
	j.st.snapshots.Add(1)
	j.syncCond.Broadcast()
	oldF.Close()
	for _, s := range old {
		os.Remove(s.path)
	}
	return nil
}

// Close fsyncs and closes the active segment and stops the syncer. A
// closed journal rejects further appends.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.syncCond.Broadcast()
	j.mu.Unlock()
	close(j.syncReq)
	<-j.syncerDone

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
