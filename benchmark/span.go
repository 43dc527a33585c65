package main

import (
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call; spans inside the program are a later change. Parent is the
// index of the enclosing span (-1 at the top) and Op the request or
// iteration the span belongs to, so the spans of one operation share it.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A tracer that is off
// still runs the timed function but records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{on: true, t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].EndNS = int64(time.Since(t.t0))
	}
}

// time runs f inside a span.
func (t *tracer) time(name string, parent, op int, f func()) {
	id := t.begin(name, parent, op)
	f()
	t.end(id)
}

// durations returns, per span name, every span's duration in seconds.
func (t *tracer) durations() map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS)/1e9)
	}
	return out
}

// selfSeconds returns, per span name, the summed self time: each span's
// duration minus what its direct children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.Name] += float64(s.EndNS-s.StartNS-child[i]) / 1e9
	}
	return out
}
