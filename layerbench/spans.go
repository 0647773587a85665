package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index of
// the enclosing span (-1 for a root); spans of one request share Req.
type span struct {
	Name       string
	Start, End time.Time
	Parent     int
	Req        string
}

// tracer keeps spans in memory for the traced run; nothing is written
// until the run ends. The untraced run never constructs one, so tracing
// off costs nothing on the measured paths.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index, for end and for children. A
// parent is always opened before its children, so it has a lower index.
func (t *tracer) begin(name string, parent int, req string, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: start, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id at the given time.
func (t *tracer) end(id int, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = at
}

// add records a span whose both ends are already known.
func (t *tracer) add(name string, parent int, req string, start, end time.Time) int {
	id := t.begin(name, parent, req, start)
	t.end(id, end)
	return id
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// named returns a copy of the spans called name, in the order opened.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the spans called name, scaled to
// unit (time.Second gives seconds, time.Microsecond microseconds).
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.dur())/float64(unit))
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the first span
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans at path as Chrome trace-event JSON. Each root
// span and its descendants share a row (tid), so nesting shows as stacking.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var epoch time.Time
	for i, s := range t.spans {
		if i == 0 || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	root := make([]int, len(t.spans))
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		root[i] = i
		if s.Parent >= 0 {
			root[i] = root[s.Parent]
		}
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: root[i],
			Ts:   float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "req": s.Req},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
