package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one op (a prove round or a served request)
// share Req. Busy carries time a callee attributed by class without
// timestamps (the trace.Recorder's per-kind totals for a prove): it is
// subtracted from self time like child spans are.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // -1 for a root
	Req    int                `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // since tracer start
	End    int64              `json:"end_ns"`
	Busy   map[string]float64 `json:"busy_s,omitempty"`
}

// tracer keeps spans in memory until write. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noSpan is the id start returns on a nil tracer.
const noSpan = -1

// start opens a span at time at (zero means now) and returns its id.
func (t *tracer) start(parent, req int, name string, at time.Time) int {
	if t == nil {
		return noSpan
	}
	if at.IsZero() {
		at = time.Now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: at.Sub(t.t0).Nanoseconds(), End: -1})
	return id
}

// end closes span id now, attaching busy (may be nil).
func (t *tracer) end(id int, busy map[string]float64) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Busy = busy
	t.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval covered by its child spans (overlapping
// children are not double counted) minus its attributed busy time.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self := s.End - s.Start - covered
		for _, b := range s.Busy {
			self -= int64(b * 1e9)
		}
		out[s.ID] = self
	}
	return out
}

// write stores the spans with their self times as JSON at path.
func (t *tracer) write(path string) error {
	spans := t.snapshot()
	self := selfTimes(spans)
	type row struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{span: s, SelfNS: self[s.ID]}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
