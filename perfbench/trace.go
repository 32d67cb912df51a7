package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call: a client request, or a call the benchmark
// makes into a library function. Spans of one request share Req; Parent
// is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end
// of the run. A nil *tracer records nothing, so untraced code paths call
// the same methods for free.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, req int64, f func(id int)) {
	id := t.begin(name, parent, req)
	f(id)
	t.end(id)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed self times
}

func (s spanStat) meanUs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Total) / float64(s.Count) / float64(time.Microsecond)
}

func (s spanStat) meanSelfUs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Self) / float64(s.Count) / float64(time.Microsecond)
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval its children cover; children
// that overlap (parallel calls) are counted once, and any part of a
// child outside its parent is ignored.
func selfTimes(spans []span) map[string]spanStat {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanStat)
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		st := out[s.Name]
		st.Count++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - covered)
		out[s.Name] = st
	}
	return out
}
