// Package stats maintains per-recording rolling workload statistics
// over the query stream: per-backend latency distributions (power-of-two
// microsecond buckets with p50/p90/p99 estimates), an exponentially
// weighted moving average of latency, the batch-size distribution,
// cache hit rate, and the explicit-vs-inferred edge-resolution ratio of
// observed queries.
//
// Snapshot is the feedback input for the ROADMAP's cost-based query
// planner: given a recording's BackendStats — how fast each of FP, OPT,
// and LP has actually answered on THIS workload, how much of OPT's
// resolution was inferred, how batchy the query stream is, and how
// often the cache already answers — a planner can pick the cheapest
// backend for the next query instead of assuming the paper's static
// cost model. The same numbers feed the Prometheus exposition
// (`/metrics` on cmd/slicer's -pprof server) and BENCH_queries.json
// (`cmd/experiments -exp queries`). Every number comes from
// querylog.Record values, one Observe call per record.
//
// All methods are safe for concurrent use and on a nil *Recorder
// (recording disabled), mirroring internal/telemetry.
package stats

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"

	"dynslice/internal/telemetry"
	"dynslice/internal/telemetry/qtrace"
	"dynslice/internal/telemetry/querylog"
)

// EWMAAlpha is the smoothing factor of the per-backend latency EWMA:
// each new query contributes 20%, so the average tracks roughly the
// last ~10 queries — recent enough for a planner to notice a backend
// going cold (e.g. hybrid epochs evicted) without flapping on one
// outlier.
const EWMAAlpha = 0.2

const latBuckets = 64

// backend accumulates one algorithm's query stream.
type backend struct {
	queries  int64
	errors   int64
	cacheHit int64
	latSumNS int64
	ewmaMS   float64
	lat      [latBuckets]int64    // pow2 buckets of latency in microseconds
	exemplar [latBuckets]Exemplar // most recent retained trace per bucket
	observed int64                // explain queries folded in
	explicit int64
	inferred int64
	shortcut int64
}

// Exemplar links one latency bucket to a recent retained qtrace trace
// that landed in it, so a p99 spike in /metrics points at a concrete
// span tree (/debug/qtrace/<trace_id>).
type Exemplar struct {
	TraceID qtrace.TraceID `json:"trace_id"`
	Seconds float64        `json:"seconds"` // the exemplar query's latency
}

// Recorder collects the statistics for one recording.
type Recorder struct {
	mu       sync.Mutex
	backends map[string]*backend
	batch    [latBuckets]int64 // pow2 buckets of per-query batch sizes
	batches  int64             // queries that arrived as part of a batch
	batchMax int64
	hits     int64
	misses   int64
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{backends: map[string]*backend{}}
}

func (r *Recorder) backendLocked(name string) *backend {
	b, ok := r.backends[name]
	if !ok {
		b = &backend{}
		r.backends[name] = b
	}
	return b
}

// Observe folds one query record into the rolling statistics: its
// backend's query, error and cache-hit counts, the edge attribution of
// an explain record, and — for a record without an error — its latency
// and batch size. exemplar, when non-zero, is the retained trace of the
// query the record belongs to; it becomes the exemplar of the latency
// bucket the record lands in, with the record's latency as its value,
// overwriting any earlier exemplar there. Callers pass only retained
// traces, so every exposed exemplar resolves at /debug/qtrace.
func (r *Recorder) Observe(q querylog.Record, exemplar qtrace.TraceID) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.backendLocked(q.Backend)
	b.queries++
	if q.CacheHit {
		b.cacheHit++
		r.hits++
	} else {
		r.misses++
	}
	if q.Kind == querylog.KindExplain {
		b.observed++
		b.explicit += q.Explicit
		b.inferred += q.Inferred
		b.shortcut += q.Shortcut
	}
	if q.Err != "" {
		b.errors++
		return
	}
	d := q.Latency
	bucket := bits.Len64(uint64(max(d.Microseconds(), 0)))
	b.latSumNS += d.Nanoseconds()
	b.lat[bucket]++
	if exemplar != 0 {
		b.exemplar[bucket] = Exemplar{TraceID: exemplar, Seconds: d.Seconds()}
	}
	ms := float64(d.Nanoseconds()) / 1e6
	if b.queries == 1 {
		b.ewmaMS = ms
	} else {
		b.ewmaMS = EWMAAlpha*ms + (1-EWMAAlpha)*b.ewmaMS
	}
	if q.Batch > 1 {
		r.batch[bits.Len64(uint64(q.Batch))]++
		r.batches++
		if int64(q.Batch) > r.batchMax {
			r.batchMax = int64(q.Batch)
		}
	}
}

// BackendStats is the exported view of one backend's query stream.
type BackendStats struct {
	Queries  int64   `json:"queries"`
	Errors   int64   `json:"errors,omitempty"`
	CacheHit int64   `json:"cache_hits"`
	MeanMs   float64 `json:"mean_ms"`
	EWMAMs   float64 `json:"ewma_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	P99Ms    float64 `json:"p99_ms"`
	// Observed queries and their edge attribution (zero unless explain
	// queries ran on this backend).
	Observed      int64   `json:"observed,omitempty"`
	ExplicitEdges int64   `json:"explicit_edges,omitempty"`
	InferredEdges int64   `json:"inferred_edges,omitempty"`
	ShortcutEdges int64   `json:"shortcut_edges,omitempty"`
	InferredRatio float64 `json:"inferred_ratio,omitempty"`
	// Exemplars maps a latency bucket's upper bound in seconds (the
	// same %g rendering as the Prometheus le label) to the most recent
	// retained trace that landed in it.
	Exemplars map[string]Exemplar `json:"exemplars,omitempty"`

	latencyUS  [latBuckets]int64
	exemplarUS [latBuckets]Exemplar
	latSumNS   int64
}

// LatencyBucketsUS exposes the raw power-of-two microsecond bucket
// counts (for exposition formats that need the full distribution).
func (b *BackendStats) LatencyBucketsUS() []int64 { return b.latencyUS[:] }

// LatencySumNS exposes the exact latency sum in nanoseconds.
func (b *BackendStats) LatencySumNS() int64 { return b.latSumNS }

// LatencyExemplars exposes the per-bucket exemplars positionally
// aligned with LatencyBucketsUS (zero TraceID means no exemplar).
func (b *BackendStats) LatencyExemplars() []Exemplar { return b.exemplarUS[:] }

// Snapshot is a point-in-time view of a recording's workload
// statistics — the planner feedback record (see the package comment).
type Snapshot struct {
	Backends map[string]BackendStats `json:"backends"`
	// Queries counts every query across backends; CacheHitRate is
	// hits/(hits+misses) over the engine's LRU.
	Queries      int64   `json:"queries"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Batch-size distribution over queries that arrived in a batch of
	// size > 1 (each such query contributes its batch's size once).
	Batches  int64   `json:"batched_queries,omitempty"`
	BatchP50 float64 `json:"batch_p50,omitempty"`
	BatchP90 float64 `json:"batch_p90,omitempty"`
	BatchMax int64   `json:"batch_max,omitempty"`
}

// Snapshot captures the current statistics. Safe on nil (returns an
// empty snapshot).
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{Backends: map[string]BackendStats{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, b := range r.backends {
		bs := BackendStats{
			Queries:       b.queries,
			Errors:        b.errors,
			CacheHit:      b.cacheHit,
			EWMAMs:        b.ewmaMS,
			Observed:      b.observed,
			ExplicitEdges: b.explicit,
			InferredEdges: b.inferred,
			ShortcutEdges: b.shortcut,
			latencyUS:     b.lat,
			exemplarUS:    b.exemplar,
			latSumNS:      b.latSumNS,
		}
		for i, ex := range b.exemplar {
			if ex.TraceID == 0 {
				continue
			}
			if bs.Exemplars == nil {
				bs.Exemplars = map[string]Exemplar{}
			}
			bs.Exemplars[fmt.Sprintf("%g", pow2USUpperSeconds(i))] = ex
		}
		if n := b.queries - b.errors; n > 0 {
			bs.MeanMs = float64(b.latSumNS) / 1e6 / float64(n)
		}
		bs.P50Ms = usToMS(telemetry.Pow2Quantile(b.lat[:], 0.50))
		bs.P90Ms = usToMS(telemetry.Pow2Quantile(b.lat[:], 0.90))
		bs.P99Ms = usToMS(telemetry.Pow2Quantile(b.lat[:], 0.99))
		if n := b.explicit + b.inferred; n > 0 {
			bs.InferredRatio = float64(b.inferred) / float64(n)
		}
		s.Backends[name] = bs
		s.Queries += b.queries
	}
	s.CacheHits = r.hits
	s.CacheMisses = r.misses
	if n := r.hits + r.misses; n > 0 {
		s.CacheHitRate = float64(r.hits) / float64(n)
	}
	s.Batches = r.batches
	s.BatchMax = r.batchMax
	if r.batches > 0 {
		s.BatchP50 = telemetry.Pow2Quantile(r.batch[:], 0.50)
		s.BatchP90 = telemetry.Pow2Quantile(r.batch[:], 0.90)
	}
	return s
}

func usToMS(us float64) float64 { return us / 1000 }

// WritePrometheus renders the snapshot's querylog-derived series in
// Prometheus text format under the namespace prefix: per-backend query
// counters, latency histograms (cumulative buckets in seconds), EWMA
// and inferred-ratio gauges, and the cache/batch series.
func (s *Snapshot) WritePrometheus(w io.Writer, namespace string) error {
	names := make([]string, 0, len(s.Backends))
	for name := range s.Backends {
		names = append(names, name)
	}
	sort.Strings(names)

	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	fam := func(suffix string) string { return telemetry.PromName(namespace, suffix) }

	p("# HELP %s Queries answered, by backend.\n", fam("queries.total"))
	p("# TYPE %s counter\n", fam("queries.total"))
	for _, n := range names {
		p("%s{backend=%q} %d\n", fam("queries.total"), n, s.Backends[n].Queries)
	}
	p("# HELP %s Failed queries, by backend.\n", fam("query.errors.total"))
	p("# TYPE %s counter\n", fam("query.errors.total"))
	for _, n := range names {
		p("%s{backend=%q} %d\n", fam("query.errors.total"), n, s.Backends[n].Errors)
	}
	p("# HELP %s Query wall latency, by backend.\n", fam("query.latency.seconds"))
	p("# TYPE %s histogram\n", fam("query.latency.seconds"))
	for _, n := range names {
		b := s.Backends[n]
		exemplars := b.LatencyExemplars()
		var cum int64
		for i, c := range b.LatencyBucketsUS() {
			if c == 0 {
				continue
			}
			cum += c
			p("%s_bucket{backend=%q,le=\"%g\"} %d",
				fam("query.latency.seconds"), n, pow2USUpperSeconds(i), cum)
			// OpenMetrics-style exemplar: the bucket carries the trace ID
			// of a recent retained query this slow, so a latency spike in
			// /metrics points straight at /debug/qtrace/<id>.
			if ex := exemplars[i]; ex.TraceID != 0 {
				p(" # {trace_id=%q} %g", ex.TraceID.String(), ex.Seconds)
			}
			p("\n")
		}
		p("%s_bucket{backend=%q,le=\"+Inf\"} %d\n", fam("query.latency.seconds"), n, cum)
		p("%s_sum{backend=%q} %g\n", fam("query.latency.seconds"), n, float64(b.LatencySumNS())/1e9)
		p("%s_count{backend=%q} %d\n", fam("query.latency.seconds"), n, cum)
	}
	p("# HELP %s EWMA query latency in milliseconds (alpha=%g), by backend.\n",
		fam("query.latency.ewma.ms"), EWMAAlpha)
	p("# TYPE %s gauge\n", fam("query.latency.ewma.ms"))
	for _, n := range names {
		p("%s{backend=%q} %g\n", fam("query.latency.ewma.ms"), n, s.Backends[n].EWMAMs)
	}
	p("# HELP %s Inferred share of edge resolutions in observed queries, by backend.\n",
		fam("query.inferred.ratio"))
	p("# TYPE %s gauge\n", fam("query.inferred.ratio"))
	for _, n := range names {
		p("%s{backend=%q} %g\n", fam("query.inferred.ratio"), n, s.Backends[n].InferredRatio)
	}
	p("# HELP %s Engine LRU cache hits.\n", fam("query.cache.hits.total"))
	p("# TYPE %s counter\n", fam("query.cache.hits.total"))
	p("%s %d\n", fam("query.cache.hits.total"), s.CacheHits)
	p("# HELP %s Engine LRU cache misses.\n", fam("query.cache.misses.total"))
	p("# TYPE %s counter\n", fam("query.cache.misses.total"))
	p("%s %d\n", fam("query.cache.misses.total"), s.CacheMisses)
	p("# HELP %s Queries that arrived in a batch of size > 1.\n", fam("query.batched.total"))
	p("# TYPE %s counter\n", fam("query.batched.total"))
	p("%s %d\n", fam("query.batched.total"), s.Batches)
	p("# HELP %s Largest batch observed.\n", fam("query.batch.max"))
	p("# TYPE %s gauge\n", fam("query.batch.max"))
	p("%s %d\n", fam("query.batch.max"), s.BatchMax)
	return err
}

// pow2USUpperSeconds converts power-of-two microsecond bucket i's
// inclusive upper bound to seconds.
func pow2USUpperSeconds(i int) float64 {
	if i == 0 {
		return 0
	}
	return (math.Ldexp(1, i) - 1) / 1e6
}
