package qtrace

// Trace export: JSON/JSONL snapshots, Chrome trace-event rendering via
// the shared telemetry.Timeline writer, and the /debug/qtrace HTTP
// endpoints.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path"
	"time"

	"dynslice/internal/telemetry"
)

// SpanExport is one span's exported view. Times are microseconds
// relative to the trace's start.
type SpanExport struct {
	ID      SpanID         `json:"id"`
	Parent  SpanID         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS float64        `json:"start_us"`
	DurUS   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Err     string         `json:"err,omitempty"`
}

// Export is a trace's exported view — the JSONL line shape and the
// /debug/qtrace/<id> response.
type Export struct {
	TraceID TraceID      `json:"trace_id"`
	QueryID uint64       `json:"query_id,omitempty"`
	Kind    string       `json:"kind"`
	Addr    int64        `json:"addr,omitempty"`
	Batch   int          `json:"batch,omitempty"`
	Start   time.Time    `json:"start"`
	DurUS   float64      `json:"dur_us"`
	Backend string       `json:"backend,omitempty"`
	Plan    string       `json:"plan,omitempty"`
	Err     string       `json:"err,omitempty"`
	Hit     bool         `json:"cache_hit,omitempty"`
	Reason  string       `json:"retain_reason,omitempty"`
	Spans   []SpanExport `json:"spans,omitempty"`
}

// Export snapshots the trace (nil-safe: returns a zero Export).
func (t *Trace) Export() Export {
	if t == nil {
		return Export{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Export{
		TraceID: t.id,
		QueryID: t.out.QueryID,
		Kind:    t.kind,
		Addr:    t.addr,
		Batch:   t.batch,
		Start:   t.start,
		DurUS:   us(t.dur),
		Backend: t.out.Backend,
		Plan:    t.out.Plan,
		Err:     t.out.Err,
		Hit:     t.out.CacheHit,
		Reason:  t.reason,
		Spans:   make([]SpanExport, 0, len(t.spans)),
	}
	for i := range t.spans {
		sp := &t.spans[i]
		se := SpanExport{
			ID: sp.id, Parent: sp.parent, Name: sp.name,
			StartUS: us(sp.start), DurUS: us(sp.dur), Err: sp.err,
		}
		if len(sp.attrs) > 0 {
			se.Attrs = make(map[string]any, len(sp.attrs))
			for _, a := range sp.attrs {
				if a.Str != "" {
					se.Attrs[a.Key] = a.Str
				} else {
					se.Attrs[a.Key] = a.Int
				}
			}
		}
		e.Spans = append(e.Spans, se)
	}
	return e
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteJSONL dumps the retained traces, oldest first, one JSON object
// per line.
func (tr *Tracer) WriteJSONL(w io.Writer) error {
	if tr == nil {
		return nil
	}
	ts := tr.Recent(0)
	enc := json.NewEncoder(w)
	for i := len(ts) - 1; i >= 0; i-- {
		if err := enc.Encode(ts[i].Export()); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile snapshots the retained traces to a JSONL file atomically
// (temp file + rename, like telemetry snapshots).
func (tr *Tracer) WriteFile(p string) error {
	if tr == nil {
		return nil
	}
	return telemetry.WriteFileAtomic(p, tr.WriteJSONL)
}

// WriteTimeline renders one trace's span tree onto a Chrome trace-event
// timeline: one complete event per span, all on the row named by the
// trace ID (tid), so each query renders as its own stacked tree in
// chrome://tracing or Perfetto. Safe on nil trace or timeline.
func (t *Trace) WriteTimeline(tl *telemetry.Timeline) {
	if t == nil || tl == nil {
		return
	}
	e := t.Export()
	tid := int(uint64(e.TraceID) & 0x7fffffff)
	for _, sp := range e.Spans {
		args := map[string]any{"trace_id": e.TraceID.String()}
		for k, v := range sp.Attrs {
			args[k] = v
		}
		if sp.Err != "" {
			args["err"] = sp.Err
		}
		start := e.Start.Add(time.Duration(sp.StartUS * 1e3))
		tl.EventArgs(sp.Name, "qtrace", tid, start, time.Duration(sp.DurUS*1e3), args)
	}
}

// WriteTimeline renders every retained trace, oldest first.
func (tr *Tracer) WriteTimeline(tl *telemetry.Timeline) {
	if tr == nil || tl == nil {
		return
	}
	ts := tr.Recent(0)
	for i := len(ts) - 1; i >= 0; i-- {
		ts[i].WriteTimeline(tl)
	}
}

// listJSON is the /debug/qtrace response shape.
type listJSON struct {
	Capacity int      `json:"capacity"`
	Policy   Policy   `json:"policy"`
	Stats    Stats    `json:"stats"`
	Traces   []Export `json:"traces"` // most recent first, spans elided
}

// ServeHTTP serves the retained-trace ring. Mounted at /debug/qtrace it
// lists trace summaries (spans elided; ?n=K limits the count);
// /debug/qtrace/<id> returns one trace's full span tree.
func (tr *Tracer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if tr == nil {
		http.Error(w, "query tracing not enabled", http.StatusNotFound)
		return
	}
	if base := path.Base(req.URL.Path); base != "qtrace" && base != "/" && base != "." {
		id, err := ParseTraceID(base)
		if err != nil {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		t := tr.Get(id)
		if t == nil {
			http.Error(w, "trace not retained (dropped, evicted, or never started)", http.StatusNotFound)
			return
		}
		writeJSON(w, t.Export())
		return
	}
	n := 0
	if s := req.URL.Query().Get("n"); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
			http.Error(w, "bad n parameter", http.StatusBadRequest)
			return
		}
	}
	resp := listJSON{
		Capacity: tr.Capacity(),
		Policy:   tr.Policy(),
		Stats:    tr.Stats(),
		Traces:   []Export{},
	}
	for _, t := range tr.Recent(n) {
		e := t.Export()
		e.Spans = nil
		resp.Traces = append(resp.Traces, e)
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client disconnects are not actionable
}
