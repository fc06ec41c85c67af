// Package querylog is the query flight recorder: a fixed-capacity,
// race-free ring buffer of per-query audit records for the slicing
// engine. Every query answered through the root façade or the
// QueryEngine — single, batched, cached, or observed (explain) —
// appends one Record per criterion for each backend attempt or cache
// hit, carrying a monotonic query ID, the criterion, the backend that
// answered it, wall latency, cache attribution, result size, and (for
// observed queries) the traversal's explicit-vs-inferred edge
// attribution folded in from the explain Recorder.
//
// The ring retains the most recent Capacity records for the
// /debug/queries endpoint and post-hoc JSONL export; an optional
// streaming sink (SetSink) additionally receives every record as one
// JSONL line the moment it is recorded, which is what
// `cmd/slicer -querylog out.jsonl` wires up. Queries slower than a
// configurable threshold are also logged structurally through
// log/slog (SetSlowQuery).
//
// The package follows the internal/telemetry discipline: every method
// is safe on a nil *Log and returns immediately, so the query path is
// instrumented unconditionally and pays only branch-predictable nil
// checks when no recorder is attached (the root TestOverhead guard
// covers this path).
package querylog

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynslice/internal/telemetry"
	"dynslice/internal/telemetry/qtrace"
)

// Query kinds.
const (
	KindSlice   = "slice"   // single-criterion query
	KindBatch   = "batch"   // one criterion of a batched SliceAddrs call
	KindExplain = "explain" // observed query with provenance recording
)

// Record is one query's audit entry.
type Record struct {
	// ID is the monotonic per-recording query ID (1-based; 0 means no
	// query log was attached when the ID was minted).
	ID uint64 `json:"id"`
	// Start is the time the façade or engine call began: the call's one
	// start clock read, shared by all its records and its trace.
	Start time.Time `json:"start"`
	// Backend is the algorithm that answered: "FP", "OPT", "LP",
	// "reexec", or "forward".
	Backend string `json:"backend"`
	// Kind is the query shape: slice, batch, or explain.
	Kind string `json:"kind"`
	// Addr is the criterion address.
	Addr int64 `json:"addr"`
	// Batch is the size of the enclosing batch (0 for single queries).
	Batch int `json:"batch,omitempty"`
	// Latency is the wall time of the backend call that computed the
	// record; criteria of one batched call share it evenly. A cache
	// hit's latency runs from the call's start to the hit.
	Latency time.Duration `json:"latency_ns"`
	// CacheHit marks queries answered from the QueryEngine's LRU cache.
	CacheHit bool `json:"cache_hit"`
	// Stmts and Lines are the result size.
	Stmts int `json:"stmts"`
	Lines int `json:"lines"`
	// Instances and LabelProbes are traversal effort (slicing.Stats);
	// for batched calls they aggregate the whole batch and are reported
	// on its first record only.
	Instances   int64 `json:"instances,omitempty"`
	LabelProbes int64 `json:"label_probes,omitempty"`
	// Explicit/Inferred/Shortcut are the edge-resolution attribution of
	// an observed query (explain.Profile); zero for plain queries.
	Explicit int64 `json:"explicit_edges,omitempty"`
	Inferred int64 `json:"inferred_edges,omitempty"`
	Shortcut int64 `json:"shortcut_edges,omitempty"`
	// Err classifies a failed query ("" on success; see Classify).
	Err string `json:"err,omitempty"`
	// Plan is the backend the cost-based planner originally chose for
	// this query ("" when the query was dispatched directly rather than
	// through a planned engine). Plan != Backend means the planned
	// backend failed and the fallback ladder promoted another.
	Plan string `json:"plan,omitempty"`
	// PlanReason is the planner's cost rationale (or the fallback cause
	// when a ladder rung other than the first answered).
	PlanReason string `json:"plan_reason,omitempty"`
	// Source reports where the answering recording's graphs came from:
	// "build" (fresh instrumented execution) or "snapshot" (loaded from
	// the persistent graph cache).
	Source string `json:"source,omitempty"`
	// TraceID links the record to the query's causal trace (qtrace):
	// when the trace was retained, /debug/qtrace/<id> renders the span
	// tree behind this record. 0 when no tracer was attached.
	TraceID qtrace.TraceID `json:"trace_id,omitempty"`
}

// Classify maps a query error to its audit class: "" for nil,
// "bad_criterion" for unknown addresses/globals, "internal" otherwise.
func Classify(err error) string {
	if err == nil {
		return ""
	}
	msg := err.Error()
	if strings.Contains(msg, "no global") || strings.Contains(msg, "never defined") ||
		strings.Contains(msg, "no definition") {
		return "bad_criterion"
	}
	return "internal"
}

// Log is the fixed-capacity ring of recent query records. All methods
// are safe for concurrent use and on a nil receiver.
type Log struct {
	nextID atomic.Uint64

	mu      sync.Mutex
	ring    []Record // ring[i] valid for i < min(total, len(ring))
	next    int      // next write position
	total   uint64   // records ever added
	sink    io.Writer
	sinkErr error

	slow     time.Duration
	slowLog  *slog.Logger
	slowSeen atomic.Int64
}

// DefaultCapacity is the ring size used when New is given n <= 0.
const DefaultCapacity = 256

// New returns a Log retaining the most recent capacity records.
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{ring: make([]Record, 0, capacity)}
}

// NextID mints the next monotonic query ID (1-based). A nil log returns
// 0 for every query, marking records as unattributed.
func (l *Log) NextID() uint64 {
	if l == nil {
		return 0
	}
	return l.nextID.Add(1)
}

// Capacity returns the ring capacity (0 on nil).
func (l *Log) Capacity() int {
	if l == nil {
		return 0
	}
	// The capacity itself never changes, but reading the slice header
	// races with Add's append while the ring is still filling.
	l.mu.Lock()
	defer l.mu.Unlock()
	return cap(l.ring)
}

// SetSink attaches a streaming writer that receives every subsequent
// record as one JSONL line. Writes happen under the log's lock so lines
// never interleave; the first write error latches (SinkErr) and stops
// further streaming.
func (l *Log) SetSink(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = w
	l.sinkErr = nil
	l.mu.Unlock()
}

// SinkErr returns the latched streaming-sink write error, if any.
func (l *Log) SinkErr() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErr
}

// SetSlowQuery arranges for queries with Latency >= threshold to be
// logged through lg (slog) as structured warnings. A zero threshold or
// nil logger disables the slow log.
func (l *Log) SetSlowQuery(threshold time.Duration, lg *slog.Logger) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.slow = threshold
	l.slowLog = lg
	l.mu.Unlock()
}

// SlowQueries reports how many records crossed the slow threshold.
func (l *Log) SlowQueries() int64 {
	if l == nil {
		return 0
	}
	return l.slowSeen.Load()
}

// Add appends one record to the ring (and the streaming sink, when
// attached). Safe on nil.
func (l *Log) Add(r Record) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, r)
	} else {
		l.ring[l.next] = r
	}
	l.next++
	if l.next == cap(l.ring) {
		l.next = 0
	}
	l.total++
	if l.sink != nil && l.sinkErr == nil {
		if data, err := json.Marshal(r); err != nil {
			l.sinkErr = err
		} else if _, err := l.sink.Write(append(data, '\n')); err != nil {
			l.sinkErr = err
		}
	}
	slow, lg := l.slow, l.slowLog
	l.mu.Unlock()
	if slow > 0 && lg != nil && r.Latency >= slow {
		l.slowSeen.Add(1)
		// One line must explain a fallback: the plan, why it was chosen
		// (or why the ladder demoted), where the graphs came from, and
		// the causal trace to drill into.
		lg.Warn("slow query",
			"id", r.ID,
			"backend", r.Backend,
			"kind", r.Kind,
			"addr", r.Addr,
			"latency_ms", float64(r.Latency.Microseconds())/1000,
			"cache_hit", r.CacheHit,
			"stmts", r.Stmts,
			"err", r.Err,
			"plan", r.Plan,
			"plan_reason", r.PlanReason,
			"source", r.Source,
			"trace_id", r.TraceID.String())
	}
}

// Total returns the number of records ever added (including those the
// ring has since evicted).
func (l *Log) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Recent returns up to n retained records, most recent first. n <= 0
// means all retained records.
func (l *Log) Recent(n int) []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	have := len(l.ring)
	if n <= 0 || n > have {
		n = have
	}
	out := make([]Record, 0, n)
	// Newest is at next-1, wrapping backwards.
	for i := 0; i < n; i++ {
		idx := l.next - 1 - i
		if idx < 0 {
			idx += have
		}
		out = append(out, l.ring[idx])
	}
	return out
}

// WriteJSONL dumps the retained records, oldest first, one JSON object
// per line.
func (l *Log) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	recs := l.Recent(0)
	enc := json.NewEncoder(w)
	for i := len(recs) - 1; i >= 0; i-- {
		if err := enc.Encode(recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile snapshots the retained records to a JSONL file atomically
// (temp file + rename, like telemetry snapshots).
func (l *Log) WriteFile(path string) error {
	if l == nil {
		return nil
	}
	return telemetry.WriteFileAtomic(path, l.WriteJSONL)
}

// snapshotJSON is the /debug/queries response shape.
type snapshotJSON struct {
	Total    uint64   `json:"total"`
	Capacity int      `json:"capacity"`
	Slow     int64    `json:"slow_queries"`
	Records  []Record `json:"records"` // most recent first
}

// ServeHTTP serves the recent-query ring as JSON (most recent first) —
// the /debug/queries endpoint. ?n=K limits the response to the K most
// recent records.
func (l *Log) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if l == nil {
		http.Error(w, "query log not enabled", http.StatusNotFound)
		return
	}
	n := 0
	if s := req.URL.Query().Get("n"); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
			http.Error(w, "bad n parameter", http.StatusBadRequest)
			return
		}
	}
	recs := l.Recent(n)
	if recs == nil {
		recs = []Record{}
	}
	resp := snapshotJSON{
		Total:    l.Total(),
		Capacity: l.Capacity(),
		Slow:     l.SlowQueries(),
		Records:  recs,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp) //nolint:errcheck // client disconnects are not actionable
}
