package qtrace

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynslice/internal/telemetry"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	qt := tr.StartQuery("slice", 1, 0, time.Now())
	if qt != nil {
		t.Fatalf("nil tracer minted a trace")
	}
	if qt.ID() != 0 || qt.Reason() != "" {
		t.Fatalf("nil trace accessors not zero")
	}
	sp := qt.Root().Child("plan").Int("x", 1).Str("y", "z")
	sp.End()
	sp.EndErr("internal")
	out := Outcome{QueryID: 7, Backend: "FP", Plan: "OPT", Err: "internal", CacheHit: true, CacheMiss: true}
	if tr.Finish(qt, out) {
		t.Fatalf("nil tracer retained a trace")
	}
	if New(4, Policy{OnError: true}).Finish(nil, out) {
		t.Fatalf("nil trace retained")
	}
	if got := tr.Recent(0); got != nil {
		t.Fatalf("nil tracer Recent = %v", got)
	}
	if tr.Get(1) != nil || tr.Capacity() != 0 || tr.SinkErr() != nil {
		t.Fatalf("nil tracer accessors not zero")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
	tr.WriteTimeline(telemetry.NewTimeline())
	var nt *Trace
	nt.WriteTimeline(telemetry.NewTimeline())
	if e := nt.Export(); e.TraceID != 0 {
		t.Fatalf("nil Export = %+v", e)
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	for _, id := range []TraceID{0, 1, 0xdeadbeef, 1 << 63} {
		got, err := ParseTraceID(id.String())
		if err != nil {
			t.Fatalf("ParseTraceID(%q): %v", id.String(), err)
		}
		if got != id {
			t.Fatalf("round trip %v -> %q -> %v", id, id.String(), got)
		}
		data, err := json.Marshal(id)
		if err != nil {
			t.Fatal(err)
		}
		var back TraceID
		if err := json.Unmarshal(data, &back); err != nil || back != id {
			t.Fatalf("json round trip %v -> %s -> %v (%v)", id, data, back, err)
		}
	}
	if _, err := ParseTraceID("xyz"); err == nil {
		t.Fatalf("ParseTraceID accepted garbage")
	}
}

func TestSpanTreeCapture(t *testing.T) {
	tr := New(4, Policy{OnError: true})
	start := time.Now()
	qt := tr.StartQuery("slice", 42, 0, start)
	if qt.ID() == 0 {
		t.Fatalf("no trace ID minted")
	}
	plan := qt.Root().Child("plan").Str("backend", "reexec")
	plan.End()
	att := qt.Root().Child("attempt/reexec")
	att.Child("acquire").End()
	att.EndErr("internal")
	att2 := qt.Root().Child("attempt/LP")
	att2.Child("exec/LP").Int("seg_scans", 3).End()
	att2.End()
	retained := tr.Finish(qt, Outcome{QueryID: 9, Plan: "reexec", Backend: "LP", Err: "internal"})

	if !retained || qt.Reason() != ReasonError {
		t.Fatalf("retained=%v reason=%q, want error retention", retained, qt.Reason())
	}
	e := qt.Export()
	if !e.Start.Equal(start) {
		t.Fatalf("trace start %v, want the query's start %v", e.Start, start)
	}
	if len(e.Spans) != 6 {
		t.Fatalf("got %d spans, want 6: %+v", len(e.Spans), e.Spans)
	}
	if e.Spans[0].Name != "query/slice" || e.Spans[0].Parent != 0 {
		t.Fatalf("bad root span: %+v", e.Spans[0])
	}
	byName := map[string]SpanExport{}
	for _, sp := range e.Spans {
		byName[sp.Name] = sp
	}
	if byName["attempt/reexec"].Err != "internal" {
		t.Fatalf("attempt/reexec missing error class: %+v", byName["attempt/reexec"])
	}
	if byName["acquire"].Parent != byName["attempt/reexec"].ID {
		t.Fatalf("acquire not under attempt/reexec")
	}
	if got := byName["exec/LP"].Attrs["seg_scans"]; got != float64(3) && got != int64(3) {
		t.Fatalf("exec/LP seg_scans = %v", got)
	}
	if e.QueryID != 9 || e.Plan != "reexec" || e.Backend != "LP" || e.Err != "internal" || e.Hit {
		t.Fatalf("outcome: %+v", e)
	}
	// Finishing twice keeps one ring entry and the first outcome.
	if !tr.Finish(qt, Outcome{Backend: "OPT"}) {
		t.Fatalf("second Finish forgot the retention")
	}
	if got := len(tr.Recent(0)); got != 1 {
		t.Fatalf("double Finish retained %d traces", got)
	}
	if e := qt.Export(); e.Backend != "LP" || e.Err != "internal" {
		t.Fatalf("second Finish replaced the outcome: %+v", e)
	}
}

func TestRetentionPolicy(t *testing.T) {
	finish := func(pol Policy, o Outcome) (*Trace, bool) {
		tr := New(4, pol)
		qt := tr.StartQuery("slice", 1, 0, time.Now())
		return qt, tr.Finish(qt, o)
	}
	qt, retained := finish(Policy{}, Outcome{Err: "internal", CacheMiss: true})
	if retained {
		t.Fatalf("zero policy retained a trace (reason %q)", qt.Reason())
	}
	qt, _ = finish(Policy{OnError: true}, Outcome{Err: "bad_criterion"})
	if qt.Reason() != ReasonError {
		t.Fatalf("reason = %q, want error", qt.Reason())
	}
	qt, _ = finish(Policy{Slow: time.Nanosecond}, Outcome{})
	if qt.Reason() != ReasonSlow {
		t.Fatalf("reason = %q, want slow", qt.Reason())
	}
	qt, _ = finish(Policy{OnPlanDiverge: true}, Outcome{Plan: "reexec", Backend: "LP"})
	if qt.Reason() != ReasonPlanDiverge {
		t.Fatalf("reason = %q, want plan_divergence", qt.Reason())
	}
	if _, retained = finish(Policy{OnPlanDiverge: true}, Outcome{Plan: "LP", Backend: "LP"}); retained {
		t.Fatalf("plan==backend retained as divergence")
	}
	qt, _ = finish(Policy{OnCacheMiss: true}, Outcome{CacheMiss: true})
	if qt.Reason() != ReasonCacheMiss {
		t.Fatalf("reason = %q, want cache_miss", qt.Reason())
	}
	// Priority: an errored slow trace counts once, under error.
	qt, _ = finish(Policy{OnError: true, Slow: time.Nanosecond}, Outcome{Err: "internal"})
	if qt.Reason() != ReasonError {
		t.Fatalf("reason = %q, want error to win priority", qt.Reason())
	}
}

// TestSamplerDeterminism pins the satellite requirement: for a fixed
// seed, the 1-in-N sampler picks the same trace IDs on every run of the
// same ID stream — replaying a workload replays its sampled traces.
func TestSamplerDeterminism(t *testing.T) {
	const n = 16
	const stream = 4096
	pick := func(seed uint64) []TraceID {
		tr := New(stream, Policy{SampleN: n, Seed: seed})
		var got []TraceID
		for i := 0; i < stream; i++ {
			qt := tr.StartQuery("slice", int64(i), 0, time.Now())
			if tr.Finish(qt, Outcome{}) {
				if qt.Reason() != ReasonSample {
					t.Fatalf("reason = %q, want sample", qt.Reason())
				}
				got = append(got, qt.ID())
			}
		}
		return got
	}
	a, b := pick(7), pick(7)
	if len(a) == 0 {
		t.Fatalf("sampler picked nothing over %d traces at 1-in-%d", stream, n)
	}
	if len(a) != len(b) {
		t.Fatalf("two runs sampled %d vs %d traces", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Rate sanity: 1-in-16 over 4096 hashed IDs should land near 256.
	if len(a) < stream/n/2 || len(a) > stream/n*2 {
		t.Fatalf("sample rate off: %d of %d at 1-in-%d", len(a), stream, n)
	}
	// A different seed samples a different set.
	c := pick(8)
	same := 0
	for _, id := range a {
		for _, od := range c {
			if id == od {
				same++
			}
		}
	}
	if same == len(a) && len(a) == len(c) {
		t.Fatalf("seed change did not move the sample")
	}
}

func TestRingEvictionAndGet(t *testing.T) {
	tr := New(4, Policy{SampleN: 1})
	var ids []TraceID
	for i := 0; i < 10; i++ {
		qt := tr.StartQuery("slice", int64(i), 0, time.Now())
		tr.Finish(qt, Outcome{})
		ids = append(ids, qt.ID())
	}
	st := tr.Stats()
	if st.Started != 10 || st.Retained != 10 || st.BySample != 10 {
		t.Fatalf("stats = %+v", st)
	}
	recent := tr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recent))
	}
	if recent[0].ID() != ids[9] || recent[3].ID() != ids[6] {
		t.Fatalf("recent order wrong: %v .. %v", recent[0].ID(), recent[3].ID())
	}
	if tr.Get(ids[9]) == nil {
		t.Fatalf("newest trace not found")
	}
	if tr.Get(ids[0]) != nil {
		t.Fatalf("evicted trace still found")
	}
	if got := len(tr.Recent(2)); got != 2 {
		t.Fatalf("Recent(2) returned %d", got)
	}
}

func TestJSONLAndSink(t *testing.T) {
	var sink bytes.Buffer
	tr := New(8, Policy{SampleN: 1})
	tr.SetSink(&sink)
	for i := 0; i < 3; i++ {
		qt := tr.StartQuery("batch", int64(i), 5, time.Now())
		qt.Root().Child("exec/FP").End()
		tr.Finish(qt, Outcome{Backend: "FP"})
	}
	if err := tr.SinkErr(); err != nil {
		t.Fatalf("sink err: %v", err)
	}
	if got := strings.Count(sink.String(), "\n"); got != 3 {
		t.Fatalf("sink got %d lines, want 3", got)
	}
	var dump bytes.Buffer
	if err := tr.WriteJSONL(&dump); err != nil {
		t.Fatal(err)
	}
	var first Export
	if err := json.Unmarshal([]byte(strings.SplitN(dump.String(), "\n", 2)[0]), &first); err != nil {
		t.Fatalf("bad JSONL line: %v", err)
	}
	if first.Kind != "batch" || first.Batch != 5 || first.Backend != "FP" || len(first.Spans) != 2 {
		t.Fatalf("first export: %+v", first)
	}
}

func TestTimelineExport(t *testing.T) {
	tr := New(8, Policy{SampleN: 1})
	qt := tr.StartQuery("slice", 1, 0, time.Now())
	qt.Root().Child("exec/OPT").Int("stmts", 9).End()
	tr.Finish(qt, Outcome{})
	tl := telemetry.NewTimeline()
	tr.WriteTimeline(tl)
	evs := tl.Events()
	if len(evs) != 2 {
		t.Fatalf("timeline got %d events, want 2", len(evs))
	}
	found := false
	for _, ev := range evs {
		if ev.Cat != "qtrace" || ev.Args["trace_id"] != qt.ID().String() {
			t.Fatalf("event missing qtrace args: %+v", ev)
		}
		if ev.Name == "exec/OPT" {
			found = true
		}
	}
	if !found {
		t.Fatalf("exec span missing from timeline: %+v", evs)
	}
}

func TestServeHTTP(t *testing.T) {
	tr := New(8, Policy{SampleN: 1})
	qt := tr.StartQuery("slice", 42, 0, time.Now())
	qt.Root().Child("plan").End()
	tr.Finish(qt, Outcome{Backend: "OPT"})

	rr := httptest.NewRecorder()
	tr.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/qtrace", nil))
	var list listJSON
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil {
		t.Fatalf("list response: %v\n%s", err, rr.Body.String())
	}
	if len(list.Traces) != 1 || list.Traces[0].TraceID != qt.ID() || list.Traces[0].Spans != nil {
		t.Fatalf("list = %+v", list)
	}
	if list.Stats.Retained != 1 {
		t.Fatalf("list stats = %+v", list.Stats)
	}

	rr = httptest.NewRecorder()
	tr.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/qtrace/"+qt.ID().String(), nil))
	var full Export
	if err := json.Unmarshal(rr.Body.Bytes(), &full); err != nil {
		t.Fatalf("full response: %v\n%s", err, rr.Body.String())
	}
	if full.TraceID != qt.ID() || len(full.Spans) != 2 {
		t.Fatalf("full = %+v", full)
	}

	rr = httptest.NewRecorder()
	tr.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/qtrace/ffffffffffffffff", nil))
	if rr.Code != 404 {
		t.Fatalf("missing trace -> %d, want 404", rr.Code)
	}
	rr = httptest.NewRecorder()
	tr.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/qtrace/zz", nil))
	if rr.Code != 400 {
		t.Fatalf("bad id -> %d, want 400", rr.Code)
	}
	rr = httptest.NewRecorder()
	var none *Tracer
	none.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/qtrace", nil))
	if rr.Code != 404 {
		t.Fatalf("nil tracer -> %d, want 404", rr.Code)
	}
}
