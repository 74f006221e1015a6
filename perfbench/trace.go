package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of
// one session share a trace id; a sampled message's Publish and Recv
// spans share the message's.
type span struct {
	name       string
	start, end int64 // ns since the run started
	parent     int32 // index of the parent span, -1 for a root
	trace      uint64
}

// maxSpans bounds the in-memory trace; spans past it are counted as
// dropped instead of growing the heap mid-measurement, and a run that
// dropped any fails. A workload traces a new session only while its
// tracer is less than half full (see hasRoom), which leaves room for
// one session's spans: a traced stream session records about 9K.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	base    time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, spans: make([]span, 0, maxSpans)}
}

// open starts a span that will have children and returns its id.
func (t *tracer) open(name string, parent int32, trace uint64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: now, end: now, parent: parent, trace: trace})
	return int32(len(t.spans) - 1)
}

// hasRoom reports whether the tracer is less than half full, so that
// a session traced from now on cannot fill it.
func (t *tracer) hasRoom() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) < maxSpans/2
}

// len returns the number of spans kept.
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// lost returns the number of spans dropped because the tracer was
// full.
func (t *tracer) lost() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// close ends a span opened by open.
func (t *tracer) close(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// leaf records a finished call that began at start.
func (t *tracer) leaf(name string, parent int32, trace uint64, start time.Time) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{name: name, start: int64(start.Sub(t.base)), end: end, parent: parent, trace: trace})
}

// spanStats aggregates the spans of one name. Self time is duration
// minus the time of the span's children.
type spanStats struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func (s spanStats) add(o spanStats) spanStats {
	return spanStats{s.Count + o.Count, s.TotalNs + o.TotalNs, s.SelfNs + o.SelfNs}
}

// summary returns the per-name totals.
func (t *tracer) summary() map[string]spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]spanStats{}
	for i, s := range t.spans {
		st := out[s.name]
		st.Count++
		st.TotalNs += s.end - s.start
		st.SelfNs += max(0, self[i])
		out[s.name] = st
	}
	return out
}

// writeFile writes the trace as JSON lines: the per-name summary
// first, then one line per span.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sum := t.summary()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := enc.Encode(map[string]any{"summary": sum, "spans": len(t.spans), "dropped": t.dropped}); err != nil {
		return err
	}
	type line struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Trace  uint64 `json:"trace"`
	}
	for i, s := range t.spans {
		if err := enc.Encode(line{i, s.name, s.start, s.end, s.parent, s.trace}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
