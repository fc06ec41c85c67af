package stats

import (
	"math"
	"math/bits"
	"strings"
	"sync"
	"testing"
	"time"

	"dynslice/internal/telemetry/qtrace"
	"dynslice/internal/telemetry/querylog"
)

// rec is a successful query record.
func rec(backend string, d time.Duration) querylog.Record {
	return querylog.Record{Backend: backend, Kind: querylog.KindSlice, Latency: d}
}

// explained is a successful explain record carrying edge attribution.
func explained(backend string, explicit, inferred, shortcut int64) querylog.Record {
	return querylog.Record{Backend: backend, Kind: querylog.KindExplain,
		Explicit: explicit, Inferred: inferred, Shortcut: shortcut}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Observe(rec("OPT", time.Millisecond), 1)
	r.Observe(explained("OPT", 1, 2, 3), 0)
	s := r.Snapshot()
	if s == nil || len(s.Backends) != 0 || s.Queries != 0 {
		t.Errorf("nil recorder snapshot = %+v", s)
	}
}

func TestObserveAggregates(t *testing.T) {
	r := New()
	// Four OPT queries: 1ms, 2ms, 3ms, and a 10ms cache hit.
	r.Observe(rec("OPT", 1*time.Millisecond), 0)
	r.Observe(rec("OPT", 2*time.Millisecond), 0)
	r.Observe(rec("OPT", 3*time.Millisecond), 0)
	hit := rec("OPT", 10*time.Millisecond)
	hit.CacheHit = true
	r.Observe(hit, 0)
	// One errored FP query: no latency contribution.
	failed := rec("FP", time.Hour)
	failed.Err = "internal"
	r.Observe(failed, 0)

	s := r.Snapshot()
	opt := s.Backends["OPT"]
	if opt.Queries != 4 || opt.CacheHit != 1 {
		t.Errorf("OPT queries/hits = %d/%d", opt.Queries, opt.CacheHit)
	}
	if want := (1.0 + 2 + 3 + 10) / 4; math.Abs(opt.MeanMs-want) > 1e-9 {
		t.Errorf("OPT MeanMs = %v, want %v", opt.MeanMs, want)
	}
	if opt.EWMAMs <= 0 {
		t.Errorf("OPT EWMAMs = %v", opt.EWMAMs)
	}
	// Quantiles in milliseconds must stay within the observed range
	// (bucket blur allows up to 2x the max).
	if opt.P50Ms <= 0 || opt.P99Ms < opt.P50Ms || opt.P99Ms > 20 {
		t.Errorf("OPT quantiles p50=%v p99=%v", opt.P50Ms, opt.P99Ms)
	}
	fp := s.Backends["FP"]
	if fp.Queries != 1 || fp.Errors != 1 {
		t.Errorf("FP queries/errors = %d/%d", fp.Queries, fp.Errors)
	}
	if fp.MeanMs != 0 {
		t.Errorf("errored query leaked into FP latency: mean %v", fp.MeanMs)
	}
	if s.Queries != 5 {
		t.Errorf("total queries = %d", s.Queries)
	}
	if want := 1.0 / 5; math.Abs(s.CacheHitRate-want) > 1e-9 {
		t.Errorf("CacheHitRate = %v, want %v", s.CacheHitRate, want)
	}
}

func TestEWMASeedAndDecay(t *testing.T) {
	r := New()
	r.Observe(rec("LP", 100*time.Millisecond), 0)
	if got := r.Snapshot().Backends["LP"].EWMAMs; got != 100 {
		t.Fatalf("EWMA seed = %v, want 100", got)
	}
	r.Observe(rec("LP", 0), 0)
	if got, want := r.Snapshot().Backends["LP"].EWMAMs, (1-EWMAAlpha)*100; math.Abs(got-want) > 1e-9 {
		t.Fatalf("EWMA after decay = %v, want %v", got, want)
	}
}

func TestBatchDistribution(t *testing.T) {
	r := New()
	batched := func(batch int) querylog.Record {
		q := rec("OPT", time.Millisecond)
		q.Kind, q.Batch = querylog.KindBatch, batch
		return q
	}
	for i := 0; i < 10; i++ {
		r.Observe(batched(25), 0)
	}
	r.Observe(rec("OPT", time.Millisecond), 0) // single: not batched
	r.Observe(batched(1), 0)                   // batch of 1: not batched
	failed := batched(40)
	failed.Err = "internal"
	r.Observe(failed, 0) // errored: not batched
	s := r.Snapshot()
	if s.Batches != 10 {
		t.Errorf("Batches = %d, want 10", s.Batches)
	}
	if s.BatchMax != 25 {
		t.Errorf("BatchMax = %d, want 25", s.BatchMax)
	}
	// 25 lives in bucket [16,31].
	if s.BatchP50 < 16 || s.BatchP50 > 31 {
		t.Errorf("BatchP50 = %v, want within [16,31]", s.BatchP50)
	}
}

func TestInferredRatio(t *testing.T) {
	r := New()
	r.Observe(explained("OPT", 75, 25, 40), 0)
	s := r.Snapshot().Backends["OPT"]
	if s.Observed != 1 || s.ExplicitEdges != 75 || s.InferredEdges != 25 || s.ShortcutEdges != 40 {
		t.Errorf("edge totals = %+v", s)
	}
	if want := 0.25; math.Abs(s.InferredRatio-want) > 1e-9 {
		t.Errorf("InferredRatio = %v, want %v", s.InferredRatio, want)
	}
}

func TestExemplars(t *testing.T) {
	var nr *Recorder
	nr.Observe(rec("OPT", time.Millisecond), 1) // nil-safe

	r := New()
	r.Observe(rec("OPT", 3*time.Millisecond), 0) // zero ID is no exemplar
	failed := rec("OPT", 3*time.Millisecond)
	failed.Err = "internal"
	r.Observe(failed, 0xdead) // an error lands in no bucket, so no exemplar
	if ex := r.Snapshot().Backends["OPT"].Exemplars; len(ex) != 0 {
		t.Fatalf("exemplar stored without a counted observation: %+v", ex)
	}
	r.Observe(rec("OPT", 3*time.Millisecond), 0xbeef)
	r.Observe(rec("OPT", 3200*time.Microsecond), 0xcafe) // same bucket: overwrites
	r.Observe(rec("OPT", 40*time.Millisecond), 0xf00d)
	s := r.Snapshot()
	bs := s.Backends["OPT"]
	if len(bs.Exemplars) != 2 {
		t.Fatalf("exemplars = %+v, want 2 buckets", bs.Exemplars)
	}
	found := map[qtrace.TraceID]bool{}
	for _, e := range bs.Exemplars {
		found[e.TraceID] = true
	}
	if !found[0xcafe] || !found[0xf00d] || found[0xbeef] {
		t.Fatalf("exemplar overwrite wrong: %+v", bs.Exemplars)
	}
	// An exemplar sits in a bucket that counts its own observation, and
	// its value is that observation's latency.
	counts := bs.LatencyBucketsUS()
	for i, e := range bs.LatencyExemplars() {
		if e.TraceID == 0 {
			continue
		}
		if counts[i] == 0 {
			t.Errorf("exemplar %s sits in count-zero bucket %d", e.TraceID, i)
		}
		if want := bits.Len64(uint64(e.Seconds * 1e6)); want != i {
			t.Errorf("exemplar %s (%gs) in bucket %d, its latency's bucket is %d", e.TraceID, e.Seconds, i, want)
		}
	}

	var b strings.Builder
	if err := s.WritePrometheus(&b, "dynslice"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`# {trace_id="000000000000cafe"} 0.0032`,
		`# {trace_id="000000000000f00d"} 0.04`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("bucket exemplar %s missing from exposition:\n%s", want, out)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	batched := rec("OPT", 3*time.Millisecond)
	batched.Kind, batched.Batch = querylog.KindBatch, 25
	r.Observe(batched, 0)
	hit := explained("OPT", 60, 40, 10)
	hit.Latency, hit.CacheHit = 5*time.Millisecond, true
	r.Observe(hit, 0)
	r.Observe(rec("FP", 40*time.Millisecond), 0)
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b, "dynslice"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`dynslice_queries_total{backend="FP"} 1`,
		`dynslice_queries_total{backend="OPT"} 2`,
		`dynslice_query_latency_seconds_count{backend="OPT"} 2`,
		`dynslice_query_latency_seconds_bucket{backend="OPT",le="+Inf"} 2`,
		`dynslice_query_inferred_ratio{backend="OPT"} 0.4`,
		`dynslice_query_cache_hits_total 1`,
		`dynslice_query_cache_misses_total 2`,
		`dynslice_query_batched_total 1`,
		`dynslice_query_batch_max 25`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentObservers(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q := rec("OPT", time.Duration(i)*time.Microsecond)
				q.Batch, q.CacheHit = i%30, i%5 == 0
				if i%50 == 0 {
					q.Kind, q.Explicit, q.Inferred, q.Shortcut = querylog.KindExplain, 10, 3, 1
				}
				r.Observe(q, qtrace.TraceID(i%7))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Queries != workers*per {
		t.Errorf("Queries = %d, want %d", s.Queries, workers*per)
	}
	if s.CacheHits+s.CacheMisses != workers*per {
		t.Errorf("hits+misses = %d", s.CacheHits+s.CacheMisses)
	}
}
