package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its start and end in
// nanoseconds since the recording process began, and the span that caused
// it (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A disabled
// tracer still times calls, so timed and traced runs share one code path,
// but records nothing.
type tracer struct {
	on    bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// begin opens a span and returns its id and start time.
func (t *tracer) begin(name string, parent int) (int, time.Time) {
	now := time.Now()
	if !t.on {
		return -1, now
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now.Sub(t.base).Nanoseconds(), End: -1})
	return id, now
}

// end closes span id and returns the time since start.
func (t *tracer) end(id int, start time.Time) time.Duration {
	now := time.Now()
	if id >= 0 {
		t.mu.Lock()
		t.spans[id].End = now.Sub(t.base).Nanoseconds()
		t.mu.Unlock()
	}
	return now.Sub(start)
}

// adopt appends a child process's spans under parent, shifting their
// clock by offset (the child's start relative to this tracer's base).
func (t *tracer) adopt(spans []span, parent int, offset time.Duration) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	first := len(t.spans)
	for _, s := range spans {
		s.ID += first
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += first
		}
		s.Start += offset.Nanoseconds()
		s.End += offset.Nanoseconds()
		t.spans = append(t.spans, s)
	}
}
