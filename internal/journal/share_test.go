package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"unizk/internal/wire"
)

// commitRecs returns the admitted and committed records of job id with
// result res, the committed one carrying res's digest the way the core
// appends it.
func commitRecs(id string, res []byte) []*Record {
	return []*Record{
		{Type: TypeAdmitted, ID: id, Req: []byte(id), TimeNS: 1},
		{Type: TypeCommitted, ID: id, Result: res, Sum: sha256.Sum256(res), TimeNS: 2},
	}
}

func appendAll(t *testing.T, j *Journal, recs []*Record) {
	t.Helper()
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatalf("append %v %s: %v", rec.Type, rec.ID, err)
		}
	}
}

// segmentBytes concatenates every live segment of dir.
func segmentBytes(t *testing.T, dir string) []byte {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
	}
	return all
}

// checkResults fails unless every job in ids is terminal with exactly
// res as its result.
func checkResults(t *testing.T, st *State, ids []string, res []byte) {
	t.Helper()
	for _, id := range ids {
		job := st.Jobs[id]
		if job == nil || !job.Terminal || !bytes.Equal(job.Result, res) || job.ResultSum != sha256.Sum256(res) {
			t.Fatalf("job %s after replay = %+v, want committed with the shared result", id, job)
		}
	}
}

// TestCommitsShareResultBytes commits one result N times: its bytes
// reach the segment once and the snapshot image once, and replay gives
// every job the identical bytes back.
func TestCommitsShareResultBytes(t *testing.T) {
	const n = 6
	res := bytes.Repeat([]byte("shared-proof|"), 500)
	dir := t.TempDir()
	j, _ := openReplayed(t, dir, Options{Fsync: FsyncOff})
	var ids []string
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("c%08d", i)
		ids = append(ids, id)
		appendAll(t, j, commitRecs(id, res))
	}
	if got := j.Stats().ResultsShared; got != n-1 {
		t.Fatalf("results shared = %d, want %d", got, n-1)
	}
	if got := bytes.Count(segmentBytes(t, dir), res); got != 1 {
		t.Fatalf("result bytes appear %d times in the segments, want 1", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, st := openReplayed(t, dir, Options{Fsync: FsyncOff})
	checkResults(t, st, ids, res)
	if err := j2.Compact(n); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(segmentBytes(t, dir), res); got != 1 {
		t.Fatalf("result bytes appear %d times in the snapshot image, want 1", got)
	}
	// The image holds the bytes, so a commit after it names them.
	ids = append(ids, "c-after")
	appendAll(t, j2, commitRecs("c-after", res))
	if got := j2.Stats().ResultsShared; got != 1 {
		t.Fatalf("commit after the snapshot wrote its bytes again (shared = %d)", got)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, st3 := openReplayed(t, dir, Options{})
	defer j3.Close()
	checkResults(t, st3, ids, res)
}

// TestReplayCutAnywhere cuts a journal that mixes committed bytes,
// refs into the tail, refs into a compacted image and a cache hit's
// admit-and-commit record at every byte offset — every frame boundary
// and every point inside a frame — and replays each prefix: every whole
// frame before the cut is applied, no job is terminal without its
// result, and no ref is applied without its bytes.
func TestReplayCutAnywhere(t *testing.T) {
	r1, r2, r3 := []byte("result-one"), []byte("result-two-longer"), []byte("result-three")
	dir := t.TempDir()
	j, _ := openReplayed(t, dir, Options{Fsync: FsyncOff, SnapshotEvery: -1})
	// The three jobs finish together and x was admitted first, so a
	// compaction keeping two finished jobs drops it: r3 leaves the chain
	// with the segments the compaction deletes.
	appendAll(t, j, commitRecs("x", r3))
	appendAll(t, j, commitRecs("a", r1))
	appendAll(t, j, commitRecs("b", r1)) // ref into the tail
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, _ = openReplayed(t, dir, Options{Fsync: FsyncOff, SnapshotEvery: -1})
	if err := j.Compact(2); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, commitRecs("c", r1)) // ref into the image
	appendAll(t, j, commitRecs("d", r2)) // new bytes
	appendAll(t, j, commitRecs("e", r2)) // ref into the tail
	appendAll(t, j, commitRecs("g", r3)) // bytes again: the image lacks them
	hit := &Record{Type: TypeCommitted, ID: "f", Req: []byte("f"), Tenant: "t",
		Result: r2, Sum: sha256.Sum256(r2), TimeNS: 3}
	appendAll(t, j, []*Record{hit})
	if got := j.Stats().ResultsShared; got != 3 {
		t.Fatalf("results shared = %d, want 3", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(lastSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"a": r1, "b": r1, "c": r1, "d": r2, "e": r2, "f": r2, "g": r3}
	// ends[i] is where frame i ends: a cut at or past it keeps the frame.
	var ends []int
	for off := 0; off < len(full); {
		_, n, ok := parseFrame(full[off:])
		if !ok {
			t.Fatalf("unreadable frame at %d of the uncut journal", off)
		}
		off += n
		ends = append(ends, off)
	}

	for cut := 0; cut <= len(full); cut++ {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, "seg-00000001.wal"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cj, err := Open(cdir, Options{Fsync: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		st := NewState()
		err = cj.Replay(func(rec *Record) {
			if rec.Type == TypeCommittedRef && st.results[rec.Sum] == nil {
				t.Errorf("cut %d: ref for %s replayed ahead of its bytes", cut, rec.ID)
			}
			st.Apply(rec)
		})
		replayed := cj.Stats().RecordsReplayed
		cj.Close()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		if replayed != int64(whole) {
			t.Fatalf("cut %d: replayed %d records, want the %d whole frames before it", cut, replayed, whole)
		}
		for id, job := range st.Jobs {
			if job.Terminal && !bytes.Equal(job.Result, want[id]) {
				t.Fatalf("cut %d: job %s terminal with result %q, want %q", cut, id, job.Result, want[id])
			}
		}
		if cut == len(full) && len(st.Jobs) != len(want) {
			t.Fatalf("uncut journal replayed %d jobs, want %d", len(st.Jobs), len(want))
		}
	}
}

// TestParentFormatReplays replays a journal written by the previous
// format — committed records with inline bytes and a snapshot image
// whose jobs carry their results inline (testdata/parent-format) — and
// keeps appending to it in the current format.
func TestParentFormatReplays(t *testing.T) {
	data, err := os.ReadFile("testdata/parent-format/seg-00000002.wal")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000002.wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	res := []byte("parent-result-bytes")
	check := func(st *State) {
		t.Helper()
		if st.Epoch != 1 || len(st.Jobs) != 4 {
			t.Fatalf("parent state shape: epoch %d, %d jobs", st.Epoch, len(st.Jobs))
		}
		p1, p2, p3, p4 := st.Jobs["p00000001"], st.Jobs["p00000002"], st.Jobs["p00000003"], st.Jobs["p00000004"]
		if !p1.Terminal || !bytes.Equal(p1.Result, res) || p1.Dispatches != 1 || p1.DoneNodeID != "id1" ||
			p1.Priority != 2 || p1.TimeoutNS != 1000 || p1.Tenant != "t" {
			t.Fatalf("p00000001 = %+v", p1)
		}
		if !p2.Terminal || !p2.Failed || p2.Class != "deadline" || p2.Code != 504 {
			t.Fatalf("p00000002 = %+v", p2)
		}
		if !p3.Terminal || !bytes.Equal(p3.Result, res) {
			t.Fatalf("p00000003 = %+v", p3)
		}
		if p4.Terminal || p4.Dispatches != 1 || p4.Node != "n2" || p4.TimeoutNS != 5000 {
			t.Fatalf("p00000004 = %+v", p4)
		}
	}
	j, st := openReplayed(t, dir, Options{Fsync: FsyncOff})
	check(st)
	// The tail's committed bytes are known: committing them again names
	// them, and a snapshot in the current format replaces the old image.
	appendAll(t, j, []*Record{{Type: TypeCommitted, ID: "p00000004", Result: res, Sum: sha256.Sum256(res), TimeNS: 17}})
	if got := j.Stats().ResultsShared; got != 1 {
		t.Fatalf("results shared after parent replay = %d, want 1", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, st2 := openReplayed(t, dir, Options{Fsync: FsyncOff})
	if p4 := st2.Jobs["p00000004"]; !p4.Terminal || !bytes.Equal(p4.Result, res) {
		t.Fatalf("ref after parent replay did not restore: %+v", p4)
	}
	if err := j2.WriteSnapshot(st2); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, st3 := openReplayed(t, dir, Options{})
	defer j3.Close()
	if len(st3.Jobs) != 4 || !bytes.Equal(st3.Jobs["p00000004"].Result, res) || !bytes.Equal(st3.Jobs["p00000001"].Result, res) {
		t.Fatalf("state after re-snapshot: %+v", st3.Jobs)
	}
}

// WriteSnapshot installs st's image as the journal's snapshot, the way
// Compact installs the fold of the records: tests use it to snapshot a
// state without folding it from segments.
func (j *Journal) WriteSnapshot(st *State) error {
	image, sums := encodeState(st)
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.installLocked(image, sums)
}

// rawFrame frames payload by hand, as frameOf would: it also frames
// records the current encoder no longer writes.
func rawFrame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// idemPayload is a type-5 record as older builds wrote it: key,
// fingerprint, job id, expiry.
func idemPayload() []byte {
	var w wire.Writer
	w.Uvarint(uint64(TypeIdem))
	w.Str("p-key")
	w.Blob(make([]byte, sha256.Size))
	w.Str("p00000004")
	w.U64(1754550600000000000)
	return w.Bytes()
}

// TestEncodeStateEmptyIdemSection replays the parent-format journal —
// its inline snapshot binds a key in its idem section — with a type-5
// record appended, and checks that both replay without a truncation and
// that the image EncodeState makes of the replayed state still carries
// the idem section older builds read, empty: bindings live in the job
// records.
func TestEncodeStateEmptyIdemSection(t *testing.T) {
	data, err := os.ReadFile("testdata/parent-format/seg-00000002.wal")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data = append(data, rawFrame(idemPayload())...)
	if err := os.WriteFile(filepath.Join(dir, "seg-00000002.wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, st := openReplayed(t, dir, Options{Fsync: FsyncOff})
	defer j.Close()
	if s := j.Stats(); s.RecordsReplayed != 6 || s.TruncatedTails != 0 {
		t.Fatalf("replayed %d records with %d truncated tails, want 6 and 0", s.RecordsReplayed, s.TruncatedTails)
	}
	r := wire.NewReader(EncodeState(st))
	if _, err := decodeTable(r); err != nil {
		t.Fatal(err)
	}
	r.Uvarint() // epoch
	for n := r.Len(); n > 0; n-- {
		if _, err := decodeJob(r, func(*JobRecord) error { r.Uvarint(); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.Len(); n != 0 {
		t.Fatalf("snapshot image holds %d idem entries, want 0", n)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("snapshot image: %v", err)
	}
}

// TestConcurrentCommitsAndSnapshots commits a few results from several
// goroutines while compactions that keep no finished job keep resetting
// the known set: no ref may
// reach the disk ahead of its bytes, whichever way the appends and the
// snapshots interleave. Run under -race it also checks the known set's
// locking.
func TestConcurrentCommitsAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	j, _ := openReplayed(t, dir, Options{Fsync: FsyncOff, SnapshotEvery: -1})
	results := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				for _, rec := range commitRecs(fmt.Sprintf("g%d-%03d", g, i), results[(g+i)%len(results)]) {
					if err := j.Append(rec); err != nil {
						t.Errorf("append: %v", err)
						return
					}
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := j.Compact(0); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	st := NewState()
	if err := j2.Replay(func(rec *Record) {
		if rec.Type == TypeCommittedRef && st.results[rec.Sum] == nil {
			t.Errorf("ref for %s replayed ahead of its bytes", rec.ID)
		}
		st.Apply(rec)
	}); err != nil {
		t.Fatal(err)
	}
	for id, job := range st.Jobs {
		if !job.Terminal || len(job.Result) == 0 {
			t.Fatalf("job %s replayed without its result: %+v", id, job)
		}
	}
}
