package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call at a layer boundary: a rep (Runner.Run), a run
// (Workload.Run through the shim) or a probe. Parent is the id of the span
// that caused it, zero for a root.
type span struct {
	id, parent int
	name       string
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory; writeChrome writes them once, at exit. It is
// used by one goroutine at a time: the harness records reps and probes, and
// the shims record runs on the Runner's single worker while the harness
// waits in Runner.Run.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: time.Since(t.origin)})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	sp := &t.spans[id-1]
	sp.end = time.Since(t.origin)
	return sp.end - sp.start
}

// selfTime is the total duration of the spans named name minus the part of
// each that its child spans cover.
func (t *tracer) selfTime(name string) time.Duration {
	children := make(map[int]time.Duration)
	for _, sp := range t.spans {
		if sp.parent != 0 {
			children[sp.parent] += sp.end - sp.start
		}
	}
	var self time.Duration
	for _, sp := range t.spans {
		if sp.name == name {
			self += sp.end - sp.start - children[sp.id]
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing open directly. Times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes every span to path as a Chrome trace-event document.
// All spans share one track: they come from one goroutine at a time and nest
// properly (a run inside its rep).
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, sp := range t.spans {
		events[i] = chromeEvent{
			Name: sp.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(sp.start) / 1e3,
			Dur:  float64(sp.end-sp.start) / 1e3,
			Args: map[string]int{"id": sp.id, "parent": sp.parent},
		}
	}
	doc, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
