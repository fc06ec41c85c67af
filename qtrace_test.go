package slicer

import (
	"strings"
	"testing"

	"dynslice/internal/slicing/plan"
	"dynslice/internal/slicing/reexec"
	"dynslice/internal/telemetry/qtrace"
	"dynslice/internal/telemetry/querylog"
)

// tracedRecording is ladderRecording with a query tracer attached.
func tracedRecording(t *testing.T, pol qtrace.Policy) (*Recording, *querylog.Log, *qtrace.Tracer) {
	t.Helper()
	p, err := Compile(ladderSrc)
	if err != nil {
		t.Fatal(err)
	}
	qlog := querylog.New(256)
	qtr := qtrace.New(64, pol)
	rec, err := p.Record(RunOptions{QueryLog: qlog, QueryTrace: qtr, DeferGraphs: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rec.Close)
	return rec, qlog, qtr
}

// findSpan returns the first span with the given name (nil when absent).
func findSpan(e qtrace.Export, name string) *qtrace.SpanExport {
	for i := range e.Spans {
		if e.Spans[i].Name == name {
			return &e.Spans[i]
		}
	}
	return nil
}

// TestQtraceFallbackLadder is the acceptance scenario: a forced planner
// fallback (the planned reexec backend rebuilt over an empty summary
// index, so it fails every query with a classified error) must yield
// exactly one retained trace whose span tree shows the planner decision,
// the failed rung with its error class, and the winning backend.
func TestQtraceFallbackLadder(t *testing.T) {
	rec, qlog, qtr := tracedRecording(t, qtrace.Policy{OnPlanDiverge: true})
	addr, err := rec.p.GlobalAddr("acc")
	if err != nil {
		t.Fatal(err)
	}

	d := rec.PlanFor(plan.Shape{Kind: plan.KindSlice, Batch: 1})
	if d.Backend != plan.Reexec {
		t.Fatalf("cold plan chose %q, want %q (%s)", d.Backend, plan.Reexec, d.Reason)
	}

	rec.reexecS = reexec.New(rec.p.ir, nil, reexec.Options{
		Input:       rec.input,
		MaxSteps:    rec.maxSteps,
		TotalBlocks: rec.totalBlocks,
	})

	e := rec.Engine(EngineOptions{CacheSize: -1})
	sl, err := e.SliceAddr(addr)
	if err != nil {
		t.Fatalf("planned query did not survive the backend fault: %v", err)
	}
	if sl.TraceID == 0 {
		t.Fatal("slice carries no trace id")
	}

	retained := qtr.Recent(0)
	if len(retained) != 1 {
		t.Fatalf("retained %d traces, want exactly 1 (the demoted query)", len(retained))
	}
	tr := qtr.Get(sl.TraceID)
	if tr == nil {
		t.Fatalf("trace %s not retained", sl.TraceID)
	}
	if got := tr.Reason(); got != qtrace.ReasonPlanDiverge {
		t.Fatalf("retain reason = %q, want %q", got, qtrace.ReasonPlanDiverge)
	}

	ex := tr.Export()
	if ex.Plan != plan.Reexec {
		t.Fatalf("trace plan = %q, want %q", ex.Plan, plan.Reexec)
	}
	if ex.Backend == "" || ex.Backend == plan.Reexec {
		t.Fatalf("trace backend = %q, want a promoted backend", ex.Backend)
	}
	if ex.Err != "" {
		t.Fatalf("successful query's trace carries error class %q", ex.Err)
	}

	// The span tree: root query span, the planner decision with its
	// chosen backend, the failed rung tagged with the demotion's error
	// class, and a clean attempt on the winner.
	if sp := findSpan(ex, "query/"+querylog.KindSlice); sp == nil {
		t.Fatal("no root query span")
	}
	psp := findSpan(ex, "plan")
	if psp == nil {
		t.Fatal("no planner decision span")
	}
	if psp.Attrs["backend"] != plan.Reexec {
		t.Fatalf("plan span backend attr = %v, want %q", psp.Attrs["backend"], plan.Reexec)
	}
	if _, ok := psp.Attrs["cost/"+plan.Reexec].(string); !ok {
		t.Fatalf("plan span has no cost attr for %s: %v", plan.Reexec, psp.Attrs)
	}
	failed := findSpan(ex, "attempt/"+plan.Reexec)
	if failed == nil {
		t.Fatal("no attempt span for the failed rung")
	}
	if failed.Err == "" || failed.Err == "bad_criterion" {
		t.Fatalf("failed rung's error class = %q, want a backend-fault class", failed.Err)
	}
	winner := findSpan(ex, "attempt/"+ex.Backend)
	if winner == nil {
		t.Fatalf("no attempt span for the winning backend %s", ex.Backend)
	}
	if winner.Err != "" {
		t.Fatalf("winning rung carries error class %q", winner.Err)
	}
	if findSpan(ex, "exec/"+ex.Backend) == nil {
		t.Fatalf("no exec span under the winning attempt")
	}

	// The audit record links back to the same trace.
	var linked bool
	for _, r := range qlog.Recent(0) {
		if r.Addr == addr && r.Err == "" && r.Plan == plan.Reexec {
			linked = true
			if r.TraceID != sl.TraceID {
				t.Fatalf("record trace_id %s != slice trace id %s", r.TraceID, sl.TraceID)
			}
			if !strings.Contains(r.PlanReason, "fallback from reexec") {
				t.Fatalf("plan reason %q does not name the fallback", r.PlanReason)
			}
		}
	}
	if !linked {
		t.Fatal("no successful audit record found for the demoted query")
	}
}

// TestQtraceDirectQuery: a query through the façade (no engine) mints
// its own trace, tags the exec span with traversal stats, and stamps the
// trace ID on both the Slice and the audit record.
func TestQtraceDirectQuery(t *testing.T) {
	rec, qlog, qtr := tracedRecording(t, qtrace.Policy{SampleN: 1})
	addr, err := rec.p.GlobalAddr("acc")
	if err != nil {
		t.Fatal(err)
	}
	sl, err := rec.LP().SliceAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	if sl.TraceID == 0 {
		t.Fatal("slice carries no trace id")
	}
	tr := qtr.Get(sl.TraceID)
	if tr == nil {
		t.Fatalf("trace %s not retained under 1-in-1 sampling", sl.TraceID)
	}
	ex := tr.Export()
	if ex.Backend != "LP" {
		t.Fatalf("trace backend = %q, want LP", ex.Backend)
	}
	esp := findSpan(ex, "exec/LP")
	if esp == nil {
		t.Fatal("no exec span")
	}
	for _, key := range []string{"stmts", "seg_scans", "seg_bytes"} {
		if _, ok := esp.Attrs[key]; !ok {
			t.Fatalf("exec span missing %q attr: %v", key, esp.Attrs)
		}
	}
	var linked bool
	for _, r := range qlog.Recent(0) {
		if r.TraceID == sl.TraceID {
			linked = true
		}
	}
	if !linked {
		t.Fatal("no audit record carries the trace id")
	}
}

// TestQtraceCacheHitAndBatch: engine cache hits are traced with the
// cache-hit flag and the serving backend; batch queries share one trace
// across all their audit records.
func TestQtraceCacheHitAndBatch(t *testing.T) {
	rec, qlog, qtr := tracedRecording(t, qtrace.Policy{SampleN: 1})
	addr, err := rec.p.GlobalAddr("acc")
	if err != nil {
		t.Fatal(err)
	}
	spin, err := rec.p.GlobalAddr("spin")
	if err != nil {
		t.Fatal(err)
	}
	e := rec.Engine(EngineOptions{CacheSize: 8})
	if _, err := e.SliceAddr(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SliceAddr(addr); err != nil {
		t.Fatal(err)
	}
	// The cached *Slice keeps its original trace id; the hit's own trace
	// is the most recent ring entry, linked from the audit record.
	recent := qtr.Recent(1)
	if len(recent) != 1 {
		t.Fatal("cache-hit trace not retained")
	}
	ex := recent[0].Export()
	if !ex.Hit {
		t.Fatal("cache-hit trace not flagged as a hit")
	}
	var hitLinked bool
	for _, r := range qlog.Recent(0) {
		if r.CacheHit && r.TraceID == ex.TraceID {
			hitLinked = true
		}
	}
	if !hitLinked {
		t.Fatal("no cache-hit audit record carries the hit's trace id")
	}

	// Batch on a cache-free engine so both criteria are computed fresh
	// and share the batch's single trace.
	outs, err := rec.Engine(EngineOptions{CacheSize: -1}).SliceAddrs([]int64{addr, spin})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].TraceID == 0 || outs[0].TraceID != outs[1].TraceID {
		t.Fatalf("batch slices carry trace ids %s and %s, want one shared id",
			outs[0].TraceID, outs[1].TraceID)
	}
	var batched int
	for _, r := range qlog.Recent(0) {
		if r.Kind == querylog.KindBatch && r.TraceID == outs[0].TraceID {
			batched++
		}
	}
	if batched != 2 {
		t.Fatalf("%d batch records share the trace id, want 2", batched)
	}
}

// TestQtraceRecordTrace: the record/replay pipeline itself is traced —
// snapshot load, profile run, interpretation — and a snapshot cache miss
// retains the trace under OnCacheMiss.
func TestQtraceRecordTrace(t *testing.T) {
	p, err := Compile(ladderSrc)
	if err != nil {
		t.Fatal(err)
	}
	qtr := qtrace.New(8, qtrace.Policy{OnCacheMiss: true})
	snap := SnapshotOptions{Dir: t.TempDir(), Read: true, Write: true}
	rec, err := p.Record(RunOptions{QueryTrace: qtr, Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	rec.Close()
	recent := qtr.Recent(0)
	if len(recent) != 1 {
		t.Fatalf("retained %d traces, want 1 (the cache-missed record)", len(recent))
	}
	ex := recent[0].Export()
	if ex.Kind != "record" {
		t.Fatalf("trace kind = %q, want record", ex.Kind)
	}
	lsp := findSpan(ex, "snapshot-load")
	if lsp == nil {
		t.Fatal("no snapshot-load span")
	}
	if lsp.Attrs["result"] != "miss" {
		t.Fatalf("snapshot-load result = %v, want miss", lsp.Attrs["result"])
	}
	if findSpan(ex, "profile") == nil || findSpan(ex, "interp") == nil {
		t.Fatal("record trace missing profile/interp spans")
	}

	// A warm cache turns the next record into a hit: not retained.
	rec2, err := p.Record(RunOptions{QueryTrace: qtr, Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	rec2.Close()
	if got := len(qtr.Recent(0)); got != 1 {
		t.Fatalf("warm record retained a trace (ring now %d), want still 1", got)
	}
}
