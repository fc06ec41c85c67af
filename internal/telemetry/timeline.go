package telemetry

// Chrome trace-event export: a Timeline collects complete ("ph":"X")
// duration events and serializes them in the Trace Event JSON format
// that chrome://tracing and Perfetto load directly. Spans ending on a
// registry with an attached timeline emit one event each, and
// trace.PipelineConfig accepts a Timeline so each trace.Async worker
// emits one event per applied batch — together they make pipeline
// utilization and per-query cost visually inspectable (docs/EXPLAIN.md,
// "Timeline export").
//
// Like the rest of the package, every Timeline method is nil-safe, so
// call sites need no branching.

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// TimelineEvent is one Trace Event Format record. Ts and Dur are in
// microseconds (the format's unit); Ts is relative to the timeline's
// creation so traces start near zero.
type TimelineEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level JSON object of a trace-event file.
type traceFile struct {
	TraceEvents     []TimelineEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// Timeline accumulates trace events. Safe for concurrent use; all
// methods are no-ops on a nil receiver.
type Timeline struct {
	mu     sync.Mutex
	t0     time.Time
	events []TimelineEvent
}

// NewTimeline returns an empty timeline whose time origin is now.
func NewTimeline() *Timeline { return &Timeline{t0: time.Now()} }

// Event records one complete duration event. tid selects the row the
// event renders on (0 for the main thread; pipeline workers use their
// own rows so per-stage activity interleaves visibly).
func (t *Timeline) Event(name, cat string, tid int, start time.Time, d time.Duration) {
	t.EventArgs(name, cat, tid, start, d, nil)
}

// EventArgs is Event with per-event args rendered in the viewer's
// detail pane — qtrace span trees attach trace IDs, probe counts, and
// error classes this way.
func (t *Timeline) EventArgs(name, cat string, tid int, start time.Time, d time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	ev := TimelineEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts:  float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		Dur: float64(d.Nanoseconds()) / 1e3,
		Pid: 1, Tid: tid,
		Args: args,
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Len returns the number of recorded events (0 on nil).
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events.
func (t *Timeline) Events() []TimelineEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TimelineEvent, len(t.events))
	copy(out, t.events)
	return out
}

// WriteJSON serializes the timeline as a Trace Event Format file
// (object form, so viewers tolerate the file even if fields are added).
func (t *Timeline) WriteJSON(w io.Writer) error {
	f := traceFile{TraceEvents: t.Events(), DisplayTimeUnit: "ms"}
	if f.TraceEvents == nil {
		f.TraceEvents = []TimelineEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// WriteFile writes the timeline atomically (temp file + rename), so a
// crash mid-export cannot leave a truncated trace.
func (t *Timeline) WriteFile(path string) error {
	return WriteFileAtomic(path, t.WriteJSON)
}

// AttachTimeline directs span completions on r into tl (nil detaches).
// The timeline may be shared with other producers — e.g. the same one
// handed to trace.PipelineConfig — and written once at exit.
func (r *Registry) AttachTimeline(tl *Timeline) {
	if r == nil {
		return
	}
	r.timeline.Store(tl)
}

// Timeline returns the attached timeline (nil when none, or on a nil
// registry).
func (r *Registry) Timeline() *Timeline {
	if r == nil {
		return nil
	}
	return r.timeline.Load()
}
