package journal

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// sampleRecords covers every record type with every union field its
// type encodes — the round-trip table for both the record codec and the
// on-disk framing.
func sampleRecords() []*Record {
	return []*Record{
		{Type: TypeAdmitted, ID: "c00000001", Req: []byte{1, 2, 3}, Priority: -5,
			TimeoutNS: int64(3 * time.Minute), Tenant: "acme", TimeNS: 1754550000000000001},
		{Type: TypeDispatched, ID: "c00000001", Node: "http://127.0.0.1:9001"},
		{Type: TypeCommitted, ID: "c00000001", Result: []byte{9, 8, 7, 6},
			Node: "http://127.0.0.1:9001", NodeID: "ab12cd34", TimeNS: 1754550001000000002},
		{Type: TypeCanceled, ID: "c00000002", Class: "deadline", Msg: "job deadline exceeded",
			Failed: true, Code: 504, TimeNS: 1754550002000000003},
		{Type: TypeCanceled, ID: "c00000003", Class: "canceled", Msg: "context canceled",
			Failed: false, Code: 499, TimeNS: 4},
		{Type: TypeSnapshot, State: EncodeState(NewState())},
		{Type: TypeEpoch, Epoch: 7},
		{Type: TypeCommittedRef, ID: "c00000001", Sum: sha256.Sum256([]byte{9, 8, 7, 6}),
			Node: "http://127.0.0.1:9001", NodeID: "ab12cd34", TimeNS: 5},
		// A cache hit: one record admits and commits, by bytes or by ref.
		{Type: TypeCommitted, ID: "c00000004", Result: []byte{9, 8, 7, 6}, TimeNS: 6,
			Req: []byte{4}, Priority: 1, TimeoutNS: 7, Tenant: "acme"},
		{Type: TypeCommittedRef, ID: "c00000005", Sum: sha256.Sum256([]byte{9, 8, 7, 6}), TimeNS: 8,
			Req: []byte{5}, Priority: -1, TimeoutNS: 9, Tenant: "acme"},
		{Type: TypeSnapshot, State: EncodeState(sharedState())},
	}
}

// sharedState is a snapshot image whose two jobs committed one result.
func sharedState() *State {
	st := NewState()
	st.Epoch = 2
	for _, id := range []string{"s1", "s2"} {
		st.Apply(&Record{Type: TypeAdmitted, ID: id, Req: []byte(id), TimeNS: 1})
		st.Apply(&Record{Type: TypeCommitted, ID: id, Result: []byte("one result"), TimeNS: 2})
	}
	return st
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		payload, err := rec.MarshalBinary()
		if err != nil {
			t.Fatalf("%v: marshal: %v", rec.Type, err)
		}
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("%v: decode: %v", rec.Type, err)
		}
		assertRecordEqual(t, rec, got)
	}
}

func assertRecordEqual(t *testing.T, want, got *Record) {
	t.Helper()
	if got.Type != want.Type || got.ID != want.ID || got.Priority != want.Priority ||
		got.TimeoutNS != want.TimeoutNS || got.Tenant != want.Tenant || got.TimeNS != want.TimeNS ||
		got.Node != want.Node || got.NodeID != want.NodeID || got.Class != want.Class ||
		got.Msg != want.Msg || got.Failed != want.Failed || got.Code != want.Code ||
		got.Epoch != want.Epoch ||
		!bytes.Equal(got.Req, want.Req) || !bytes.Equal(got.Result, want.Result) ||
		!bytes.Equal(got.State, want.State) ||
		(want.Type == TypeCommittedRef && got.Sum != want.Sum) {
		t.Fatalf("%v: round-trip mismatch:\n got %+v\nwant %+v", want.Type, got, want)
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	good, err := (&Record{Type: TypeDispatched, ID: "c1", Node: "n"}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := (&Record{Type: TypeCommittedRef, ID: "c1", Sum: [32]byte{1}}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"unknown type":   {0xff, 0x01},
		"zero type":      {0x00},
		"truncated body": good[:len(good)-1],
		"trailing bytes": append(append([]byte(nil), good...), 0x00),
		// A ref's digest is 32 bytes: drop its last byte.
		"short digest": append(append([]byte{ref[0], ref[1], ref[2], ref[3], 31}, ref[5:5+31]...), ref[5+32:]...),
		// An admission trailer must name a request.
		"empty admission": append(append([]byte(nil), ref...), 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x00),
	}
	for name, data := range cases {
		if _, err := DecodeRecord(data); err == nil {
			t.Errorf("%s: decode accepted corrupt payload", name)
		}
	}
}

func TestSnapshotStateRoundTrip(t *testing.T) {
	st := NewState()
	st.Epoch = 3
	st.Apply(&Record{Type: TypeAdmitted, ID: "c1", Req: []byte{1}, Priority: 2, TimeoutNS: 5, Tenant: "t", TimeNS: 10})
	st.Apply(&Record{Type: TypeAdmitted, ID: "c2", Req: []byte{2}, TimeNS: 11})
	st.Apply(&Record{Type: TypeDispatched, ID: "c1", Node: "http://n1"})
	st.Apply(&Record{Type: TypeDispatched, ID: "c1", Node: "http://n2"})
	st.Apply(&Record{Type: TypeCommitted, ID: "c1", Result: []byte{3, 4}, Node: "http://n2", NodeID: "id2", TimeNS: 20})
	st.Apply(&Record{Type: TypeCanceled, ID: "c2", Class: "deadline", Msg: "late", Failed: true, Code: 504, TimeNS: 21})

	got, err := DecodeState(EncodeState(st))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if shared := EncodeState(sharedState()); bytes.Count(shared, []byte("one result")) != 1 {
		t.Fatal("snapshot image stores a result shared by two jobs more than once")
	}
	if got.Epoch != 3 || len(got.Order) != 2 || len(got.Jobs) != 2 {
		t.Fatalf("state shape mismatch: %+v", got)
	}
	j1 := got.Jobs["c1"]
	if j1 == nil || !j1.Terminal || j1.Dispatches != 2 || j1.Node != "http://n2" ||
		j1.DoneNodeID != "id2" || !bytes.Equal(j1.Result, []byte{3, 4}) {
		t.Fatalf("c1 mismatch: %+v", j1)
	}
	j2 := got.Jobs["c2"]
	if j2 == nil || !j2.Terminal || !j2.Failed || j2.Canceled || j2.Class != "deadline" || j2.Code != 504 {
		t.Fatalf("c2 mismatch: %+v", j2)
	}
}

// openReplayed opens dir and completes replay, failing the test on any
// error.
func openReplayed(t *testing.T, dir string, opts Options) (*Journal, *State) {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Rebuild(j)
	if err != nil {
		t.Fatal(err)
	}
	return j, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, st := openReplayed(t, dir, Options{Fsync: FsyncOff})
	if st.Epoch != 0 || len(st.Jobs) != 0 {
		t.Fatalf("fresh journal replayed non-empty state: %+v", st)
	}
	for _, rec := range sampleRecords() {
		if err := j.Append(rec); err != nil {
			t.Fatalf("append %v: %v", rec.Type, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var replayed []*Record
	if err := j2.Replay(func(r *Record) { replayed = append(replayed, r) }); err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if len(replayed) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(replayed), len(want))
	}
	for i := range want {
		assertRecordEqual(t, want[i], replayed[i])
	}
	if s := j2.Stats(); s.RecordsReplayed != int64(len(want)) || s.TruncatedTails != 0 {
		t.Fatalf("stats mismatch: %+v", s)
	}
}

func TestLifecycleGuards(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Record{Type: TypeEpoch, Epoch: 1}); !errors.Is(err, errNotReplayed) {
		t.Fatalf("append before replay: got %v", err)
	}
	if err := j.Replay(func(*Record) {}); err != nil {
		t.Fatal(err)
	}
	if err := j.Replay(func(*Record) {}); err == nil {
		t.Fatal("second Replay accepted")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
	if err := j.Append(&Record{Type: TypeEpoch, Epoch: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: got %v", err)
	}
}

func TestSegmentRotationAndFsyncPolicies(t *testing.T) {
	for _, policy := range []Policy{FsyncAlways, FsyncBatch, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			j, _ := openReplayed(t, dir, Options{Fsync: policy, SegmentBytes: 256})
			const n = 64
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < n/4; i++ {
						err := j.Append(&Record{Type: TypeDispatched, ID: "c1", Node: strings.Repeat("n", 20)})
						if err != nil {
							t.Errorf("append: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if segs := j.Stats().Segments; segs < 2 {
				t.Fatalf("expected rotation, got %d segments", segs)
			}
			if policy != FsyncOff && j.Stats().Fsyncs == 0 {
				t.Fatal("no fsyncs recorded")
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, _ := openReplayed(t, dir, Options{})
			defer j2.Close()
			if got := j2.Stats().RecordsReplayed; got != n {
				t.Fatalf("replayed %d records across segments, want %d", got, n)
			}
		})
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := openReplayed(t, dir, Options{Fsync: FsyncOff, SegmentBytes: 256, SnapshotEvery: 8})
	if err := j.Append(&Record{Type: TypeEpoch, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		rec := &Record{Type: TypeAdmitted, ID: string(rune('a' + i)), Req: []byte{byte(i)}, TimeNS: int64(i)}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !j.SnapshotDue() {
		t.Fatal("snapshot not due after SnapshotEvery appends")
	}
	if err := j.Compact(0); err != nil {
		t.Fatal(err)
	}
	if j.SnapshotDue() {
		t.Fatal("snapshot still due immediately after Compact")
	}
	s := j.Stats()
	if s.Segments != 1 || s.Snapshots != 1 || s.SnapshotAge <= 0 {
		t.Fatalf("post-snapshot stats: %+v", s)
	}
	// The tail after the snapshot still replays on top of it.
	post := &Record{Type: TypeCommitted, ID: "a", Result: []byte{42}, TimeNS: 99}
	if err := j.Append(post); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, got := openReplayed(t, dir, Options{})
	defer j2.Close()
	if len(got.Jobs) != 16 || got.Epoch != 1 {
		t.Fatalf("replay after compaction: %d jobs, epoch %d", len(got.Jobs), got.Epoch)
	}
	if a := got.Jobs["a"]; a == nil || !a.Terminal || !bytes.Equal(a.Result, []byte{42}) {
		t.Fatalf("tail record after snapshot not applied: %+v", a)
	}
}

// TestCompactRetains compacts a journal holding unfinished, finished
// and superseded jobs and checks the image keeps every unfinished job,
// the one finished job that finished last (ties in admission order)
// and no superseded one, with each kept job's record intact.
func TestCompactRetains(t *testing.T) {
	dir := t.TempDir()
	j, _ := openReplayed(t, dir, Options{Fsync: FsyncOff, SnapshotEvery: -1})
	admit := func(id string) *Record { return &Record{Type: TypeAdmitted, ID: id, Req: []byte(id), TimeNS: 1} }
	done := func(id string, at int64) *Record {
		return &Record{Type: TypeCanceled, ID: id, Class: "deadline", Code: 504, Failed: true, TimeNS: at}
	}
	appendAll(t, j, []*Record{
		{Type: TypeEpoch, Epoch: 3},
		admit("f1"), admit("f2"), admit("f3"), admit("f4"), admit("run"), admit("sup"),
		{Type: TypeDispatched, ID: "run", Node: "n1"},
		{Type: TypeDispatched, ID: "run", Node: "n2"},
		done("f3", 10), done("f1", 30), done("f4", 20), done("f2", 30),
		{Type: TypeCanceled, ID: "sup", Class: ClassSuperseded, TimeNS: 40},
	})
	if err := j.Compact(1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, st := openReplayed(t, dir, Options{})
	defer j2.Close()
	if s := j2.Stats(); s.RecordsReplayed != 1 {
		t.Fatalf("replayed %d records, want the image alone", s.RecordsReplayed)
	}
	// f1 and f2 finished last, together; f2 was admitted later.
	if got := strings.Join(st.Order, ","); got != "f2,run" || st.Epoch != 3 {
		t.Fatalf("image holds %s at epoch %d, want f2,run at epoch 3", got, st.Epoch)
	}
	if f2 := st.Jobs["f2"]; !f2.Failed || f2.Class != "deadline" || f2.Code != 504 || f2.FinishedNS != 30 {
		t.Fatalf("f2 = %+v", f2)
	}
	if run := st.Jobs["run"]; run.Terminal || run.Dispatches != 2 || run.Node != "n2" {
		t.Fatalf("run = %+v", run)
	}
}

// TestCompactRefusesUnreadableFrame corrupts a frame in the live segment
// and checks Compact fails without touching any segment.
func TestCompactRefusesUnreadableFrame(t *testing.T) {
	dir := t.TempDir()
	j, _ := openReplayed(t, dir, Options{Fsync: FsyncOff, SnapshotEvery: -1})
	defer j.Close()
	appendAll(t, j, commitRecs("a", []byte("result")))
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(1); err == nil {
		t.Fatal("Compact folded a corrupt frame")
	}
	after, err := os.ReadFile(seg)
	if err != nil || !bytes.Equal(after, data) || lastSegment(t, dir) != seg {
		t.Fatalf("failed Compact touched the segments (err=%v)", err)
	}
	if s := j.Stats(); s.Snapshots != 0 || s.Segments != 1 {
		t.Fatalf("failed Compact stats: %+v", s)
	}
}

// lastSegment returns the newest live segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return matches[len(matches)-1]
}

// seedJournal writes n admitted records and closes the journal.
func seedJournal(t *testing.T, dir string, n int, opts Options) {
	t.Helper()
	j, _ := openReplayed(t, dir, opts)
	for i := 0; i < n; i++ {
		rec := &Record{Type: TypeAdmitted, ID: string(rune('a' + i)), Req: []byte{byte(i)}, TimeNS: int64(i)}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncatedAndQuarantined(t *testing.T) {
	cases := map[string]func(data []byte) []byte{
		"partial frame": func(data []byte) []byte { return data[:len(data)-3] },
		"garbage tail": func(data []byte) []byte {
			return append(data, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05)
		},
		"bit flip in last frame": func(data []byte) []byte {
			out := append([]byte(nil), data...)
			out[len(out)-1] ^= 0x40
			return out
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seedJournal(t, dir, 8, Options{Fsync: FsyncOff})
			seg := lastSegment(t, dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			j, st := openReplayed(t, dir, Options{Fsync: FsyncOff})
			stats := j.Stats()
			if stats.TruncatedTails != 1 {
				t.Fatalf("truncated tails = %d, want 1", stats.TruncatedTails)
			}
			// At least the intact prefix must survive; the final record may
			// be the casualty.
			if len(st.Jobs) < 7 || len(st.Jobs) > 8 {
				t.Fatalf("replayed %d jobs from corrupt tail, want 7..8", len(st.Jobs))
			}
			if _, err := os.Stat(seg + ".quarantine"); err != nil {
				t.Fatalf("quarantine file missing: %v", err)
			}
			// The journal stays writable after truncation, and the new
			// record replays cleanly later.
			if err := j.Append(&Record{Type: TypeEpoch, Epoch: 9}); err != nil {
				t.Fatalf("append after truncation: %v", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, st2 := openReplayed(t, dir, Options{})
			defer j2.Close()
			if st2.Epoch != 9 {
				t.Fatalf("epoch after post-truncation append: %d, want 9", st2.Epoch)
			}
			if got := j2.Stats().TruncatedTails; got != 0 {
				t.Fatalf("second replay still truncating: %d", got)
			}
		})
	}
}

func TestCorruptMiddleSegmentQuarantinesLaterSegments(t *testing.T) {
	dir := t.TempDir()
	// Small segments force several files.
	seedJournal(t, dir, 16, Options{Fsync: FsyncOff, SegmentBytes: 64})
	matches, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(matches) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(matches))
	}
	// Flip a bit in the first segment's first frame payload.
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader] ^= 0x01
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	j, st := openReplayed(t, dir, Options{})
	defer j.Close()
	if len(st.Jobs) != 0 {
		t.Fatalf("replayed %d jobs past a corrupt head segment", len(st.Jobs))
	}
	stats := j.Stats()
	if stats.TruncatedTails != int64(len(matches)) {
		t.Fatalf("truncation events = %d, want %d (tail cut + whole-segment quarantines)",
			stats.TruncatedTails, len(matches))
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*.quarantine"))
	if len(quarantined) != len(matches) {
		t.Fatalf("%d quarantine files, want %d", len(quarantined), len(matches))
	}
	// Still appendable.
	if err := j.Append(&Record{Type: TypeEpoch, Epoch: 1}); err != nil {
		t.Fatalf("append after quarantine: %v", err)
	}
}

// FuzzJournalReplay feeds arbitrary bytes through the on-disk replay
// path: whatever the segment contains, replay must not panic, must not
// error (corruption is truncated, not fatal), and must leave the
// journal appendable.
func FuzzJournalReplay(f *testing.F) {
	var seedBuf []byte
	for _, rec := range sampleRecords() {
		payload, err := rec.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		seedBuf = append(seedBuf, rawFrame(payload)...)
	}
	seedBuf = append(seedBuf, rawFrame(idemPayload())...)
	f.Add(seedBuf)
	parent, err := os.ReadFile("testdata/parent-format/seg-00000002.wal")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir, Options{Fsync: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		st, err := Rebuild(j)
		if err != nil {
			t.Fatalf("replay errored on corrupt input: %v", err)
		}
		if st == nil {
			t.Fatal("nil state")
		}
		if err := j.Append(&Record{Type: TypeEpoch, Epoch: st.Epoch + 1}); err != nil {
			t.Fatalf("append after fuzzed replay: %v", err)
		}
	})
}
