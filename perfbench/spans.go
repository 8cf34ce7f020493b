package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
// A nil tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span under parent (0 = top level) and returns the
// function that closes it and reports its duration. The duration is
// returned even on a nil tracer, so callers time layers the same way
// in both modes.
func (t *tracer) begin(name string, parent int) (id int, end func() time.Duration) {
	start := time.Now()
	if t == nil {
		return 0, func() time.Duration { return time.Since(start) }
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: start.Sub(t.t0).Nanoseconds()})
	id = len(t.spans)
	return id, func() time.Duration {
		now := time.Now()
		t.spans[id-1].EndNS = now.Sub(t.t0).Nanoseconds()
		return now.Sub(start)
	}
}

// write saves the spans and the run's header as one JSON document.
func (t *tracer) write(path string, header any) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{"run": header, "spans": t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
