package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval: a call from the benchmark into a
// layer's public entry point. Spans sharing a job id belong to one job
// (a table, a campaign unit, a daemon request). Aggregate spans (count
// > 1) stand for many short calls of one kind under the same parent —
// every Network.Step of a replay, say — whose durations were summed in
// place, since a span per call would cost more than the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Job    string `json:"job,omitempty"`
	Name   string `json:"name"`
	// StartNS and EndNS are offsets from the trace start. For an
	// aggregate span EndNS-StartNS is the summed duration.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	Count   int   `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int, job string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, StartNS: now, EndNS: -1})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// aggregate records count calls of one kind totalling d under parent.
func (t *tracer) aggregate(name string, parent int, job string, d time.Duration, count int) {
	if t == nil || count == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, EndNS: d.Nanoseconds(), Count: count})
}

// selfTimes sums each span name's self time: its duration minus the
// part of it its child spans cover. Children of one parent are taken
// not to overlap (the benchmark calls each layer from one goroutine
// per job).
func (t *tracer) selfTimes() map[string]time.Duration {
	childSum := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.EndNS >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.EndNS < 0 {
			continue
		}
		d := s.dur() - childSum[s.ID]
		if d < 0 {
			d = 0
		}
		self[s.Name] += d
	}
	return self
}

// counts sums each span name's call count.
func (t *tracer) counts() map[string]int {
	n := map[string]int{}
	for _, s := range t.spans {
		c := s.Count
		if c == 0 {
			c = 1
		}
		n[s.Name] += c
	}
	return n
}

// write saves every span as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
