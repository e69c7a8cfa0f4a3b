package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by a traced run. Spans
// live in memory until the run ends and are then written to the trace
// file.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 marks a top-level span
	Op     int    `json:"op"`     // the grid cell or request the call served
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
	// Count is work done inside the span, for layers with a natural
	// unit of work (BFS edge visits); Bytes is heap allocated in it.
	Count float64 `json:"count,omitempty"`
	Bytes uint64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder records nested spans from a single goroutine.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans of the spans not yet ended
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (r *recorder) begin(name string, op int) int {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(r.t0))})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return i
}

// end closes the innermost open span, which must be i.
func (r *recorder) end(i int) *span {
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = int64(time.Since(r.t0))
	return &r.spans[i]
}

// do records fn as one span.
func (r *recorder) do(name string, op int, fn func()) *span {
	i := r.begin(name, op)
	fn()
	return r.end(i)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		switch {
		case !open:
			curStart, curEnd, open = lo, hi, true
		case lo > curEnd:
			total += curEnd - curStart
			curStart, curEnd = lo, hi
		case hi > curEnd:
			curEnd = hi
		}
	}
	if open {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// writeTrace writes the run's environment and spans as one JSON document.
func writeTrace(path string, env envRecord, spans []span) error {
	b, err := json.Marshal(struct {
		Env   envRecord `json:"env"`
		Spans []span    `json:"spans"`
	}{env, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
