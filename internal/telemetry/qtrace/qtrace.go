// Package qtrace is per-query causal tracing for the slicing engine: a
// span tree per query, threaded through the planner decision, each rung
// of the fallback ladder, backend execution, lazy graph builds, and
// snapshot load, so one slow or demoted query renders as a single tree
// with per-hop durations, byte/probe annotations, and the error class
// behind every demotion.
//
// The discipline is tail-based sampling (the low-overhead-monitoring
// lineage in PAPERS.md): every query gets a cheap monotonic trace ID
// and its spans are captured in memory, but a finished trace is
// *retained* — admitted to the fixed-capacity ring, streamed to the
// JSONL sink, linked as a histogram exemplar — only when the outcome
// was interesting: slow (latency >= Policy.Slow), errored, cache-missed,
// plan != backend (a fallback demotion), or picked by a deterministic
// 1-in-N sample of trace IDs. Everything else is dropped at Finish, so
// steady-state cost is one small allocation and a few clock reads per
// query.
//
// Like internal/telemetry and querylog, every method is safe on a nil
// receiver (nil *Tracer, nil *Trace, zero SpanRef): the query path is
// instrumented unconditionally and pays only branch-predictable nil
// checks when tracing is off — the root TestOverhead guard covers that
// path. The ring follows querylog.Log's race discipline: one mutex, a
// wrapping cursor, a streaming sink whose first write error latches.
package qtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one query's trace. IDs are minted monotonically
// per Tracer (1-based); 0 means "no tracer attached".
type TraceID uint64

// String renders the ID as 16 hex digits ("" for the zero ID).
func (id TraceID) String() string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", uint64(id))
}

// MarshalJSON renders the ID as a quoted hex string.
func (id TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON parses the quoted hex form ("" decodes to 0).
func (id *TraceID) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return err
	}
	v, err := ParseTraceID(s)
	if err != nil {
		return err
	}
	*id = v
	return nil
}

// ParseTraceID parses the hex form produced by String ("" parses to 0).
func ParseTraceID(s string) (TraceID, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("qtrace: bad trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// SpanID identifies a span within its trace (1-based; the root span is
// always 1; 0 is "no parent" / "no span").
type SpanID int32

// Attr is one span annotation: either an integer (probe counts, bytes,
// result sizes) or a string (backend names, reasons, error classes).
type Attr struct {
	Key string `json:"key"`
	Int int64  `json:"int,omitempty"`
	Str string `json:"str,omitempty"`
}

// span is the internal span record; exported views are built on demand.
type span struct {
	id     SpanID
	parent SpanID
	name   string
	start  time.Duration // offset from the trace's start
	dur    time.Duration
	ended  bool
	attrs  []Attr
	err    string
}

// Retention reasons, in decision priority order.
const (
	ReasonError       = "error"
	ReasonSlow        = "slow"
	ReasonPlanDiverge = "plan_divergence"
	ReasonCacheMiss   = "cache_miss"
	ReasonSample      = "sample"
)

// Outcome is how a query ended. The query hands it to Finish once,
// which keeps it with the trace and applies the retention policy to it.
type Outcome struct {
	QueryID   uint64 // ID of the query's first flight-recorder record
	Backend   string // backend that answered ("" when none did)
	Plan      string // backend the planner chose ("" for direct dispatch)
	Err       string // terminal error class (querylog.Classify), "" on success
	CacheHit  bool   // answered from the engine LRU
	CacheMiss bool   // an engine LRU or snapshot-cache miss
}

// Trace is one query's span tree plus its outcome. Span capture is safe
// for concurrent use (fallback rungs never overlap, but batched
// backends may annotate from worker goroutines); every method is safe
// on a nil *Trace.
type Trace struct {
	id    TraceID
	kind  string
	addr  int64
	batch int
	start time.Time

	mu       sync.Mutex
	spans    []span
	root     [1]span // backs spans until a child is added
	out      Outcome
	dur      time.Duration
	finished bool
	reason   string
}

// ID returns the trace ID (0 on nil).
func (t *Trace) ID() TraceID {
	if t == nil {
		return 0
	}
	return t.id
}

// Reason returns why the trace was retained ("" when dropped).
func (t *Trace) Reason() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reason
}

// Root returns a handle on the root span (zero SpanRef on nil).
func (t *Trace) Root() SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return SpanRef{t: t, id: 1}
}

// newSpan appends a span under parent and returns its handle.
func (t *Trace) newSpan(parent SpanID, name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	t.mu.Lock()
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		id: id, parent: parent, name: name, start: time.Since(t.start),
	})
	t.mu.Unlock()
	return SpanRef{t: t, id: id}
}

// SpanRef is a cheap handle on one span of a trace. The zero SpanRef
// (and any SpanRef on a nil trace) is inert: every method no-ops, so
// call sites thread spans unconditionally.
type SpanRef struct {
	t  *Trace
	id SpanID
}

// Trace returns the owning trace (nil for an inert handle).
func (s SpanRef) Trace() *Trace { return s.t }

// Child starts a new span under this one.
func (s SpanRef) Child(name string) SpanRef {
	if s.t == nil {
		return SpanRef{}
	}
	return s.t.newSpan(s.id, name)
}

// Int annotates the span with an integer attribute.
func (s SpanRef) Int(key string, v int64) SpanRef {
	if s.t == nil {
		return s
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.id-1]
	sp.attrs = append(sp.attrs, Attr{Key: key, Int: v})
	s.t.mu.Unlock()
	return s
}

// Str annotates the span with a string attribute.
func (s SpanRef) Str(key, v string) SpanRef {
	if s.t == nil {
		return s
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.id-1]
	sp.attrs = append(sp.attrs, Attr{Key: key, Str: v})
	s.t.mu.Unlock()
	return s
}

// End closes the span, fixing its duration. Ending twice keeps the
// first duration.
func (s SpanRef) End() { s.end("") }

// EndErr closes the span and tags it with the error class that made
// this hop fail (the demotion cause on fallback-ladder rungs).
func (s SpanRef) EndErr(class string) { s.end(class) }

func (s SpanRef) end(class string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.id-1]
	if !sp.ended {
		sp.ended = true
		sp.dur = time.Since(s.t.start) - sp.start
		sp.err = class
	}
	s.t.mu.Unlock()
}

// Policy is the tail-based retention policy: which finished traces are
// kept. The zero Policy retains nothing (every trace still gets an ID).
type Policy struct {
	// Slow retains traces with wall time >= Slow (0 disables).
	Slow time.Duration `json:"slow_ns"`
	// SampleN retains a deterministic 1-in-N sample of trace IDs
	// (0 disables). The choice depends only on (Seed, TraceID), so the
	// same ID stream always samples the same traces.
	SampleN int `json:"sample_n"`
	// Seed perturbs the sampler so co-deployed tracers don't sample in
	// lockstep.
	Seed uint64 `json:"seed"`
	// OnError retains traces whose query failed.
	OnError bool `json:"on_error"`
	// OnCacheMiss retains traces of cache-missed queries.
	OnCacheMiss bool `json:"on_cache_miss"`
	// OnPlanDiverge retains traces where the answering backend differs
	// from the planned one — every fallback demotion.
	OnPlanDiverge bool `json:"on_plan_diverge"`
}

// DefaultPolicy retains errors, demotions, cache misses, queries slower
// than 25ms, and a 1-in-128 sample.
func DefaultPolicy() Policy {
	return Policy{
		Slow:          25 * time.Millisecond,
		SampleN:       128,
		OnError:       true,
		OnCacheMiss:   true,
		OnPlanDiverge: true,
	}
}

// DefaultCapacity is the ring size used when New is given n <= 0.
const DefaultCapacity = 256

// Stats counts capture activity since the tracer was created. Retention
// reasons are attributed by priority (error > slow > plan_divergence >
// cache_miss > sample): a trace that is both errored and slow counts
// once, under error.
type Stats struct {
	Started       uint64 `json:"started"`
	Retained      uint64 `json:"retained"`
	ByError       uint64 `json:"by_error,omitempty"`
	BySlow        uint64 `json:"by_slow,omitempty"`
	ByPlanDiverge uint64 `json:"by_plan_divergence,omitempty"`
	ByCacheMiss   uint64 `json:"by_cache_miss,omitempty"`
	BySample      uint64 `json:"by_sample,omitempty"`
}

// Tracer mints trace IDs, applies the retention policy, and retains
// interesting traces in a fixed-capacity ring. All methods are safe for
// concurrent use and on a nil receiver.
type Tracer struct {
	pol    Policy
	nextID atomic.Uint64

	mu      sync.Mutex
	ring    []*Trace
	next    int
	sink    io.Writer
	sinkErr error

	started       atomic.Uint64
	retainedN     atomic.Uint64
	byError       atomic.Uint64
	bySlow        atomic.Uint64
	byPlanDiverge atomic.Uint64
	byCacheMiss   atomic.Uint64
	bySample      atomic.Uint64
}

// New returns a Tracer retaining up to capacity traces under pol.
func New(capacity int, pol Policy) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{pol: pol, ring: make([]*Trace, 0, capacity)}
}

// Policy returns the tracer's retention policy.
func (tr *Tracer) Policy() Policy {
	if tr == nil {
		return Policy{}
	}
	return tr.pol
}

// Capacity returns the ring capacity (0 on nil).
func (tr *Tracer) Capacity() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return cap(tr.ring)
}

// SetSink attaches a streaming writer that receives every retained
// trace as one JSONL line at Finish. Writes happen under the tracer's
// lock so lines never interleave; the first error latches (SinkErr).
func (tr *Tracer) SetSink(w io.Writer) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.sink = w
	tr.sinkErr = nil
	tr.mu.Unlock()
}

// SinkErr returns the latched streaming-sink write error, if any.
func (tr *Tracer) SinkErr() error {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.sinkErr
}

// StartQuery mints a trace for one query that began at start and opens
// its root span ("query/<kind>") there. A nil tracer returns a nil
// trace, which every downstream call accepts.
func (tr *Tracer) StartQuery(kind string, addr int64, batch int, start time.Time) *Trace {
	if tr == nil {
		return nil
	}
	tr.started.Add(1)
	t := &Trace{
		id:    TraceID(tr.nextID.Add(1)),
		kind:  kind,
		addr:  addr,
		batch: batch,
		start: start,
	}
	t.root[0] = span{id: 1, name: "query/" + kind}
	t.spans = t.root[:]
	return t
}

// Finish closes the trace with its outcome (ending any still-open spans
// at the trace's end), decides retention, and — for retained traces —
// admits it to the ring and the streaming sink. It reports whether the
// trace was retained. Finishing twice keeps the first outcome.
func (tr *Tracer) Finish(t *Trace, o Outcome) bool {
	if tr == nil || t == nil {
		return false
	}
	t.mu.Lock()
	if t.finished {
		retained := t.reason != ""
		t.mu.Unlock()
		return retained
	}
	t.finished = true
	t.out = o
	t.dur = time.Since(t.start)
	for i := range t.spans {
		if !t.spans[i].ended {
			t.spans[i].ended = true
			t.spans[i].dur = t.dur - t.spans[i].start
		}
	}
	t.reason = tr.retainReason(t)
	reason := t.reason
	t.mu.Unlock()
	if reason == "" {
		return false
	}
	tr.retainedN.Add(1)
	switch reason {
	case ReasonError:
		tr.byError.Add(1)
	case ReasonSlow:
		tr.bySlow.Add(1)
	case ReasonPlanDiverge:
		tr.byPlanDiverge.Add(1)
	case ReasonCacheMiss:
		tr.byCacheMiss.Add(1)
	case ReasonSample:
		tr.bySample.Add(1)
	}
	tr.mu.Lock()
	if len(tr.ring) < cap(tr.ring) {
		tr.ring = append(tr.ring, t)
	} else {
		tr.ring[tr.next] = t
	}
	tr.next++
	if tr.next == cap(tr.ring) {
		tr.next = 0
	}
	if tr.sink != nil && tr.sinkErr == nil {
		if data, err := json.Marshal(t.Export()); err != nil {
			tr.sinkErr = err
		} else if _, err := tr.sink.Write(append(data, '\n')); err != nil {
			tr.sinkErr = err
		}
	}
	tr.mu.Unlock()
	return true
}

// retainReason applies the policy; called with t.mu held.
func (tr *Tracer) retainReason(t *Trace) string {
	pol, o := tr.pol, t.out
	switch {
	case pol.OnError && o.Err != "":
		return ReasonError
	case pol.Slow > 0 && t.dur >= pol.Slow:
		return ReasonSlow
	case pol.OnPlanDiverge && o.Plan != "" && o.Backend != "" && o.Plan != o.Backend:
		return ReasonPlanDiverge
	case pol.OnCacheMiss && o.CacheMiss:
		return ReasonCacheMiss
	case Sampled(pol.Seed, t.id, pol.SampleN):
		return ReasonSample
	}
	return ""
}

// Sampled reports whether the deterministic 1-in-n sampler picks id
// under seed. The decision is a pure function of its arguments.
func Sampled(seed uint64, id TraceID, n int) bool {
	if n <= 0 {
		return false
	}
	return splitmix64(seed^uint64(id))%uint64(n) == 0
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-distributed
// bijection, so sampling 1-in-N of hashed IDs is unbiased even though
// the raw IDs are sequential.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Stats returns capture counters since the tracer was created.
func (tr *Tracer) Stats() Stats {
	if tr == nil {
		return Stats{}
	}
	return Stats{
		Started:       tr.started.Load(),
		Retained:      tr.retainedN.Load(),
		ByError:       tr.byError.Load(),
		BySlow:        tr.bySlow.Load(),
		ByPlanDiverge: tr.byPlanDiverge.Load(),
		ByCacheMiss:   tr.byCacheMiss.Load(),
		BySample:      tr.bySample.Load(),
	}
}

// Recent returns up to n retained traces, most recent first (n <= 0
// means all).
func (tr *Tracer) Recent(n int) []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	have := len(tr.ring)
	if n <= 0 || n > have {
		n = have
	}
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		idx := tr.next - 1 - i
		if idx < 0 {
			idx += have
		}
		out = append(out, tr.ring[idx])
	}
	return out
}

// Get returns the retained trace with the given ID (nil when evicted or
// never retained). The ring is small, so a linear scan suffices.
func (tr *Tracer) Get(id TraceID) *Trace {
	if tr == nil || id == 0 {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.ring {
		if t.id == id {
			return t
		}
	}
	return nil
}
