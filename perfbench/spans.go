package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of the traced run, recorded around a call
// into a layer from the benchmark's own code. Spans of one request or one
// try share ID; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string  `json:"name"`
	ID     int64   `json:"id"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; write puts them out once, at the end of
// the run. A nil tracer records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its index, for close and for use as a
// parent; the span ends when closed.
func (t *tracer) open(name string, id int64, parent int, start time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := start.Sub(t.t0).Seconds()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: s, End: s})
	return len(t.spans) - 1
}

func (t *tracer) close(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = end.Sub(t.t0).Seconds()
}

// add records a finished span and returns its index.
func (t *tracer) add(name string, id int64, parent int, start, end time.Time) int {
	i := t.open(name, id, parent, start)
	t.close(i, end)
	return i
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
