package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer (or one whole job). Spans of one
// job share the job span as parent.
type span struct {
	name          string
	id, parent    int
	start, finish time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory; a nil tracer records nothing, which is
// how untraced repetitions run the same code path.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it. Both are no-ops
// on a nil tracer.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent,
		start: time.Since(t.epoch)})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].finish = time.Since(t.epoch)
}

// selfTimes returns, for every span id, its duration minus the part its
// direct children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		self[s.id] += s.finish - s.start
		if s.parent != 0 {
			self[s.parent] -= s.finish - s.start
		}
	}
	return self
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// events, microseconds), loadable in chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.finish - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1, Args: map[string]int{"id": s.id, "parent": s.parent}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
