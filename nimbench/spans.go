package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into the program: its name, its interval, the
// span that caused it (0 for none) and the track it ran on.
type span struct {
	id, parent int
	track      int
	name       string
	start, end time.Time
}

// tracer keeps spans in memory and writes them out once, at the end. A
// disabled tracer records nothing, so the untraced run pays only for the
// clock reads its own metrics need.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// add records a finished span and returns its id (0 when disabled).
func (t *tracer) add(name string, parent, track int, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, track: track, name: name, start: start, end: end})
	return id
}

// reserve allocates an id for a span whose children finish before it
// does; close fills it in.
func (t *tracer) reserve(name string, parent, track int) int {
	now := time.Now()
	return t.add(name, parent, track, now, now)
}

func (t *tracer) close(id int, end time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].end = end
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" slices,
// one tid per track), with meta under otherData.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.track,
			Ts:   float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		}
	}
	t.mu.Unlock()
	err = enc.Encode(map[string]any{"traceEvents": events, "otherData": meta})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
