package slicer_test

// Integration coverage for the query flight recorder: every backend
// attempt through the façade or the QueryEngine must leave exactly one
// well-formed audit record per criterion, cache hits must be
// attributed, and the workload statistics, traces and exemplars must
// reflect the same stream. See docs/OBSERVABILITY.md.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	slicer "dynslice"
	"dynslice/internal/telemetry/qtrace"
	"dynslice/internal/telemetry/querylog"
	"dynslice/internal/telemetry/stats"
)

// recordObserved is record() with a query log and stats recorder
// attached.
func recordObserved(t *testing.T, src string, input ...int64) (*slicer.Recording, *querylog.Log, *stats.Recorder) {
	rec, qlog, qst, _ := recordTraced(t, nil, src, input...)
	return rec, qlog, qst
}

// recordTraced is recordObserved with a query tracer attached too (nil
// attaches none).
func recordTraced(t *testing.T, qtr *qtrace.Tracer, src string, input ...int64) (*slicer.Recording, *querylog.Log, *stats.Recorder, *qtrace.Tracer) {
	t.Helper()
	p, err := slicer.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	qlog := querylog.New(1024)
	qst := stats.New()
	rec, err := p.Record(slicer.RunOptions{
		Input: input, QueryLog: qlog, QueryStats: qst, QueryTrace: qtr, TrackCriteria: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rec.Close)
	return rec, qlog, qst, qtr
}

// oneClockMismatches checks the query-event contract between the
// records, the retained traces and the exemplars: every record starts
// when its trace does, and every exemplar's value is the latency of a
// record of its trace and backend. It returns one line per mismatch.
func oneClockMismatches(qlog *querylog.Log, qst *stats.Recorder, qtr *qtrace.Tracer) []string {
	var bad []string
	recs := qlog.Recent(0)
	for _, r := range recs {
		tr := qtr.Get(r.TraceID)
		if tr == nil {
			bad = append(bad, fmt.Sprintf("record %d: trace %s not retained", r.ID, r.TraceID))
			continue
		}
		if ex := tr.Export(); !ex.Start.Equal(r.Start) {
			bad = append(bad, fmt.Sprintf("record %d starts %v after its trace", r.ID, r.Start.Sub(ex.Start)))
		}
	}
	for backend, bs := range qst.Snapshot().Backends {
		for le, ex := range bs.Exemplars {
			found := false
			for _, r := range recs {
				if r.TraceID == ex.TraceID && r.Backend == backend && r.Latency.Seconds() == ex.Seconds {
					found = true
				}
			}
			if !found {
				bad = append(bad, fmt.Sprintf("%s exemplar le=%s (trace %s, %gs) matches no record's latency", backend, le, ex.TraceID, ex.Seconds))
			}
		}
	}
	return bad
}

// TestQueryEventOneClock pins the one-clock contract of a query event:
// engine singles (one miss, then hits), a planned miss, a façade batch
// and an explain, every trace retained, must agree on start times and
// exemplar values across the log, the traces and the stats.
func TestQueryEventOneClock(t *testing.T) {
	rec, qlog, qst, qtr := recordTraced(t, qtrace.New(256, qtrace.Policy{SampleN: 1}), engineSrc)
	addrs := engineAddrs(t, rec)
	e := rec.OPT().Engine(slicer.EngineOptions{})
	for i := 0; i < 4; i++ {
		if _, err := e.SliceAddr(addrs[0]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rec.Engine(slicer.EngineOptions{}).SliceAddr(addrs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.FP().SliceAddrs(addrs[:5]); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.OPT().ExplainAddr(addrs[len(addrs)-1]); err != nil {
		t.Fatal(err)
	}
	if got, want := qlog.Total(), uint64(4+1+5+1); got != want {
		t.Fatalf("%d records, want %d", got, want)
	}
	exemplars := 0
	for _, bs := range qst.Snapshot().Backends {
		exemplars += len(bs.Exemplars)
	}
	if exemplars == 0 {
		t.Fatal("no exemplars under 1-in-1 sampling")
	}
	if bad := oneClockMismatches(qlog, qst, qtr); len(bad) > 0 {
		t.Fatalf("%d mismatches between records, traces and exemplars:\n%s", len(bad), strings.Join(bad, "\n"))
	}
}

func TestQueryAuditRecords(t *testing.T) {
	rec, qlog, _ := recordObserved(t, engineSrc)
	addrs := engineAddrs(t, rec)
	s := rec.OPT()

	// Single façade query: one slice record carrying the slice's ID.
	sl, err := s.SliceAddr(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if sl.QueryID == 0 {
		t.Error("observed slice has no QueryID")
	}
	recs := qlog.Recent(1)
	if len(recs) != 1 {
		t.Fatalf("no audit record after SliceAddr")
	}
	r := recs[0]
	if r.ID != sl.QueryID || r.Backend != "OPT" || r.Kind != querylog.KindSlice ||
		r.Addr != addrs[0] || r.CacheHit || r.Stmts != sl.Stmts || r.Err != "" {
		t.Errorf("bad slice record %+v", r)
	}
	if r.Latency <= 0 {
		t.Errorf("slice record latency %v", r.Latency)
	}

	// Batched façade query: one record per criterion, aggregate stats on
	// the first record only.
	before := qlog.Total()
	slices, err := s.SliceAddrs(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if got := qlog.Total() - before; got != uint64(len(addrs)) {
		t.Fatalf("batch of %d produced %d records", len(addrs), got)
	}
	batchRecs := qlog.Recent(len(addrs)) // newest first
	var withStats int
	for i, br := range batchRecs {
		if br.Kind != querylog.KindBatch || br.Batch != len(addrs) {
			t.Errorf("batch record %d: kind=%q batch=%d", i, br.Kind, br.Batch)
		}
		if br.Instances > 0 {
			withStats++
		}
	}
	if withStats > 1 {
		t.Errorf("batch aggregate stats on %d records, want at most 1", withStats)
	}
	for i, bsl := range slices {
		if bsl.QueryID == 0 {
			t.Errorf("batched slice %d has no QueryID", i)
		}
	}

	// Failed query: classified error record, no result fields.
	before = qlog.Total()
	if _, err := s.SliceAddr(1 << 40); err == nil {
		t.Fatal("expected error for bogus address")
	}
	if qlog.Total() != before+1 {
		t.Fatalf("error query did not log")
	}
	er := qlog.Recent(1)[0]
	if er.Err != "bad_criterion" || er.Stmts != 0 {
		t.Errorf("bad error record %+v", er)
	}
}

func TestQueryIDsMonotonic(t *testing.T) {
	rec, qlog, _ := recordObserved(t, engineSrc)
	addrs := engineAddrs(t, rec)
	s := rec.FP()
	for _, a := range addrs[:5] {
		if _, err := s.SliceAddr(a); err != nil {
			t.Fatal(err)
		}
	}
	recs := qlog.Recent(0) // newest first
	for i := 1; i < len(recs); i++ {
		if recs[i-1].ID <= recs[i].ID {
			t.Fatalf("IDs not monotonic: %d then %d", recs[i].ID, recs[i-1].ID)
		}
	}
}

func TestEngineCacheHitAudited(t *testing.T) {
	rec, qlog, qst := recordObserved(t, engineSrc)
	addrs := engineAddrs(t, rec)
	e := rec.OPT().Engine(slicer.EngineOptions{})

	first, err := e.SliceAddr(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.SliceAddr(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	// The cached slice keeps its originating query's ID; the hit itself
	// is audited under a fresh ID with CacheHit set.
	if second.QueryID != first.QueryID {
		t.Errorf("cached slice QueryID changed: %d -> %d", first.QueryID, second.QueryID)
	}
	hit := qlog.Recent(1)[0]
	if !hit.CacheHit || hit.ID == first.QueryID || hit.Kind != querylog.KindSlice {
		t.Errorf("bad cache-hit record %+v", hit)
	}
	if hit.Stmts != first.Stmts {
		t.Errorf("cache-hit record stmts %d, want %d", hit.Stmts, first.Stmts)
	}
	snap := qst.Snapshot()
	if snap.CacheHits != 1 || snap.Backends["OPT"].CacheHit != 1 {
		t.Errorf("stats cache hits = %d (backend %d), want 1", snap.CacheHits, snap.Backends["OPT"].CacheHit)
	}
}

func TestExplainAuditFoldsAttribution(t *testing.T) {
	rec, qlog, qst := recordObserved(t, engineSrc)
	addrs := engineAddrs(t, rec)
	if _, err := rec.OPT().ExplainAddr(addrs[len(addrs)-1]); err != nil {
		t.Fatal(err)
	}
	r := qlog.Recent(1)[0]
	if r.Kind != querylog.KindExplain || r.Backend != "OPT" {
		t.Fatalf("bad explain record %+v", r)
	}
	if r.Explicit+r.Inferred+r.Shortcut == 0 {
		t.Error("explain record carries no edge attribution")
	}
	if r.Instances == 0 {
		t.Error("explain record carries no traversal effort")
	}
	opt := qst.Snapshot().Backends["OPT"]
	if opt.Observed != 1 || opt.ExplicitEdges != r.Explicit || opt.InferredEdges != r.Inferred {
		t.Errorf("stats did not fold explain attribution: %+v vs record %+v", opt, r)
	}
}

func TestQuerylogJSONLRoundTrip(t *testing.T) {
	rec, qlog, _ := recordObserved(t, engineSrc)
	addrs := engineAddrs(t, rec)
	if _, err := rec.LP().SliceAddrs(addrs[:4]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := qlog.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var r querylog.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if r.ID == 0 || r.Backend != "LP" || r.Start.IsZero() {
			t.Errorf("line %d: malformed record %+v", n, r)
		}
		n++
	}
	if n != 4 {
		t.Errorf("exported %d lines, want 4", n)
	}
}

func TestTrackCriteria(t *testing.T) {
	rec, _, _ := recordObserved(t, engineSrc)
	crit := rec.Criteria()
	if len(crit) != 10 {
		t.Fatalf("tracked %d criteria, want 10", len(crit))
	}
	seen := map[int64]bool{}
	for _, a := range crit {
		if seen[a] {
			t.Errorf("duplicate criterion %d", a)
		}
		seen[a] = true
		// Every tracked criterion must be sliceable.
		if _, err := rec.OPT().SliceAddr(a); err != nil {
			t.Errorf("criterion %d not sliceable: %v", a, err)
		}
	}
}

// TestQuerylogConcurrentHammer runs concurrent queries on a fixed and a
// planned engine against a shared flight recorder, stats recorder and
// tracer, while readers walk the rings, the stats and /metrics — the
// root-level race coverage for the query-event path (`make test-race`).
func TestQuerylogConcurrentHammer(t *testing.T) {
	rec, qlog, qst, qtr := recordTraced(t, qtrace.New(64, qtrace.DefaultPolicy()), engineSrc)
	addrs := engineAddrs(t, rec)
	fixed := rec.OPT().Engine(slicer.EngineOptions{Workers: 4, CacheSize: 8})
	planned := rec.Engine(slicer.EngineOptions{Workers: 4, CacheSize: 8})

	const goroutines, rounds = 8, 4
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			e := fixed
			if gi%4 >= 2 {
				e = planned
			}
			for r := 0; r < rounds; r++ {
				if gi%2 == 0 {
					if _, err := e.SliceAddrs(addrs); err != nil {
						t.Error(err)
						return
					}
				} else {
					for _, a := range addrs {
						if _, err := e.SliceAddr(a); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(gi)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for ri := 0; ri < 2; ri++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rr := httptest.NewRecorder()
				qlog.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/queries?n=16", nil))
				if rr.Code != 200 {
					t.Errorf("/debug/queries status %d", rr.Code)
					return
				}
				rr = httptest.NewRecorder()
				qtr.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/qtrace?n=16", nil))
				if rr.Code != 200 {
					t.Errorf("/debug/qtrace status %d", rr.Code)
					return
				}
				if err := qst.Snapshot().WritePrometheus(io.Discard, "dynslice"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	// No backend faults, so no demotions: one record per criterion.
	want := uint64(goroutines * rounds * len(addrs))
	if qlog.Total() != want {
		t.Errorf("audit records = %d, want %d (one per query)", qlog.Total(), want)
	}
	snap := qst.Snapshot()
	if snap.Queries != int64(want) {
		t.Errorf("stats queries = %d, want %d", snap.Queries, want)
	}
	if snap.CacheHits == 0 {
		t.Error("no cache hits under hammer")
	}
	// One trace per call (the Record trace included), each planned one
	// with a plan; every retained query trace agrees with its records.
	calls := 1 + goroutines/2*rounds*(1+len(addrs))
	if got := qtr.Stats().Started; got != uint64(calls) {
		t.Errorf("traces started = %d, want %d", got, calls)
	}
	var plannedRecs int
	for _, r := range qlog.Recent(0) {
		if r.Plan != "" {
			plannedRecs++
			if r.Plan != r.Backend {
				t.Errorf("record %d: plan %q but backend %q with no fault in play", r.ID, r.Plan, r.Backend)
			}
		}
		if tr := qtr.Get(r.TraceID); tr != nil && !tr.Export().Start.Equal(r.Start) {
			t.Errorf("record %d does not start with its retained trace %s", r.ID, r.TraceID)
		}
	}
	if plannedRecs == 0 {
		t.Error("no planned record in the ring")
	}
}
