// Journal counters: append/replay volume, fsync latency quantiles over
// a sliding window, torn-tail events, and segment/snapshot posture —
// the raw material for the /metrics "journal" section.
package journal

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// fsyncWindow bounds the latency sample ring; old samples fall off so
// the quantiles track current disk behavior.
const fsyncWindow = 512

// fsyncSampler is a fixed-size ring of fsync latencies.
type fsyncSampler struct {
	mu sync.Mutex
	//unizklint:guardedby mu
	buf []time.Duration
	//unizklint:guardedby mu
	next int
}

func (s *fsyncSampler) add(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) < fsyncWindow {
		s.buf = append(s.buf, d)
		return
	}
	s.buf[s.next] = d
	s.next = (s.next + 1) % fsyncWindow
}

func (s *fsyncSampler) quantile(q float64) time.Duration {
	s.mu.Lock()
	tmp := append([]time.Duration(nil), s.buf...)
	s.mu.Unlock()
	if len(tmp) == 0 {
		return 0
	}
	sort.Slice(tmp, func(a, b int) bool { return tmp[a] < tmp[b] })
	idx := int(q * float64(len(tmp)-1))
	return tmp[idx]
}

// stats is the journal's internal counter set.
type stats struct {
	recordsAppended atomic.Int64
	bytesAppended   atomic.Int64
	resultsShared   atomic.Int64
	recordsReplayed atomic.Int64
	appendErrors    atomic.Int64
	truncatedTails  atomic.Int64
	fsyncs          atomic.Int64
	snapshots       atomic.Int64
	replayNS        atomic.Int64
	fsyncLat        fsyncSampler
}

func (s *stats) observeFsync(d time.Duration) {
	s.fsyncs.Add(1)
	s.fsyncLat.add(d)
}

func (s *stats) setReplayDuration(d time.Duration) {
	s.replayNS.Store(int64(d))
}

// Stats is a point-in-time snapshot of the journal's health.
type Stats struct {
	RecordsAppended int64
	// BytesAppended counts the frame bytes this process wrote, snapshots
	// included; ResultsShared counts committed records written as
	// committed-refs, each one proof not written again.
	BytesAppended   int64
	ResultsShared   int64
	RecordsReplayed int64
	AppendErrors    int64
	TruncatedTails  int64
	Fsyncs          int64
	Snapshots       int64
	FsyncP50        time.Duration
	FsyncP99        time.Duration
	// Segments counts live (non-quarantined) segment files, including
	// the active one.
	Segments int
	// SnapshotAge is the time since the last snapshot this process
	// wrote; 0 until one has been written.
	SnapshotAge time.Duration
	// ReplayDuration is how long startup replay took.
	ReplayDuration time.Duration
}

// Stats assembles the current counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	segments := len(j.segs)
	lastSnap := j.lastSnapshot
	j.mu.Unlock()
	st := Stats{
		RecordsAppended: j.st.recordsAppended.Load(),
		BytesAppended:   j.st.bytesAppended.Load(),
		ResultsShared:   j.st.resultsShared.Load(),
		RecordsReplayed: j.st.recordsReplayed.Load(),
		AppendErrors:    j.st.appendErrors.Load(),
		TruncatedTails:  j.st.truncatedTails.Load(),
		Fsyncs:          j.st.fsyncs.Load(),
		Snapshots:       j.st.snapshots.Load(),
		FsyncP50:        j.st.fsyncLat.quantile(0.50),
		FsyncP99:        j.st.fsyncLat.quantile(0.99),
		Segments:        segments,
		ReplayDuration:  time.Duration(j.st.replayNS.Load()),
	}
	if !lastSnap.IsZero() {
		st.SnapshotAge = time.Since(lastSnap)
	}
	return st
}
