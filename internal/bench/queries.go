package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	slicer "dynslice"
	"dynslice/internal/telemetry/querylog"
	"dynslice/internal/telemetry/stats"
)

// QueriesBench is one workload's query-path observability record: the
// audit-log totals and the rolling workload statistics collected while
// replaying the paper's interactive usage pattern (batched criteria,
// repeat queries hitting the cache, observed queries on OPT) through
// the QueryEngine of every backend.
type QueriesBench struct {
	Name         string  `json:"name"`
	NCriteria    int     `json:"n_criteria"`
	Queries      int     `json:"queries"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	SlowQueries  int64   `json:"slow_queries"`
	// Instances sums, per backend, the traversal instances its queries
	// visited (slicing.Stats.Instances, as the audit records carry it):
	// the query layer's work as a count, which moves only when the code
	// does.
	Instances map[string]int64 `json:"instances"`
	Stats     *stats.Snapshot  `json:"stats"`
}

// queriesRepeat is how many criteria each backend re-queries
// individually after the batch (these hit the engine cache) and how
// many observed queries run on OPT.
const queriesRepeat = 5

// RunQueries drives each workload through the query flight recorder:
// one recording with a query log and stats recorder attached, then per
// backend one batched query over the tracked criteria plus repeat
// single-criterion queries (cache hits), plus observed queries on OPT
// for the explicit-vs-inferred attribution. It validates every audit
// record (this backs `make bench-queries`) and writes per-workload
// summaries to outPath as JSON (cmd/experiments -exp queries).
func RunQueries(w io.Writer, workloads []Workload, outPath string) error {
	header(w, "Queries: flight-recorder workload statistics",
		fmt.Sprintf("%-12s %8s %8s %10s %10s %10s\n",
			"Program", "queries", "hit rate", "OPT p50ms", "OPT p99ms", "inferred"))
	var out []QueriesBench
	for _, wl := range workloads {
		qb, err := runQueriesOne(wl)
		if err != nil {
			return fmt.Errorf("queries %s: %w", wl.Name, err)
		}
		opt := qb.Stats.Backends["OPT"]
		fmt.Fprintf(w, "%-12s %8d %8.2f %10.3f %10.3f %10.3f\n",
			wl.Name, qb.Queries, qb.CacheHitRate, opt.P50Ms, opt.P99Ms, opt.InferredRatio)
		out = append(out, *qb)
	}
	return writeArtifact(w, outPath, out)
}

func runQueriesOne(wl Workload) (*QueriesBench, error) {
	qlog := querylog.New(4096)
	qst := stats.New()
	prog, err := slicer.CompileWith(wl.Src, nil)
	if err != nil {
		return nil, err
	}
	rec, err := prog.Record(slicer.RunOptions{
		Input:         wl.Input,
		QueryLog:      qlog,
		QueryStats:    qst,
		TrackCriteria: 25,
	})
	if err != nil {
		return nil, err
	}
	defer rec.Close()
	crit := rec.Criteria()
	if len(crit) == 0 {
		return nil, fmt.Errorf("no criteria tracked")
	}

	repeat := queriesRepeat
	if repeat > len(crit) {
		repeat = len(crit)
	}
	for _, s := range []*slicer.Slicer{rec.FP(), rec.OPT(), rec.LP()} {
		eng := s.Engine(slicer.EngineOptions{})
		if _, err := eng.SliceAddrs(crit); err != nil {
			return nil, fmt.Errorf("%s batch: %w", s.Name(), err)
		}
		// Re-query the first few criteria individually: all cache hits,
		// exercising the engine's cached-query audit path.
		for _, a := range crit[:repeat] {
			if _, err := eng.SliceAddr(a); err != nil {
				return nil, fmt.Errorf("%s requery: %w", s.Name(), err)
			}
		}
	}
	// Observed queries on OPT feed the inferred-edge attribution.
	optS := rec.OPT()
	for _, a := range crit[:repeat] {
		if _, err := optS.ExplainAddr(a); err != nil {
			return nil, fmt.Errorf("OPT explain: %w", err)
		}
	}

	if err := validateLog(qlog); err != nil {
		return nil, err
	}
	instances := map[string]int64{}
	for _, r := range qlog.Recent(0) {
		instances[r.Backend] += r.Instances
	}
	snap := qst.Snapshot()
	return &QueriesBench{
		Name:         wl.Name,
		NCriteria:    len(crit),
		Queries:      int(qlog.Total()),
		CacheHitRate: snap.CacheHitRate,
		SlowQueries:  qlog.SlowQueries(),
		Instances:    instances,
		Stats:        snap,
	}, nil
}

// validateLog checks the flight recorder actually captured the workload
// and that every record is well-formed — the failure conditions `make
// bench-queries` guards against.
func validateLog(qlog *querylog.Log) error {
	if qlog.Total() == 0 {
		return fmt.Errorf("query log is empty")
	}
	var buf bytes.Buffer
	if err := qlog.WriteJSONL(&buf); err != nil {
		return err
	}
	if buf.Len() == 0 {
		return fmt.Errorf("query log JSONL export is empty")
	}
	var hits int
	for i, r := range qlog.Recent(0) {
		if r.ID == 0 {
			return fmt.Errorf("record %d: missing query ID", i)
		}
		if r.Backend != "FP" && r.Backend != "OPT" && r.Backend != "LP" {
			return fmt.Errorf("record %d: bad backend %q", i, r.Backend)
		}
		switch r.Kind {
		case querylog.KindSlice, querylog.KindBatch, querylog.KindExplain:
		default:
			return fmt.Errorf("record %d: bad kind %q", i, r.Kind)
		}
		if r.Latency < 0 || r.Latency > time.Hour {
			return fmt.Errorf("record %d: implausible latency %v", i, r.Latency)
		}
		if r.Err == "" && r.Stmts <= 0 {
			return fmt.Errorf("record %d: successful query with empty slice", i)
		}
		if r.CacheHit {
			hits++
		}
	}
	if hits == 0 {
		return fmt.Errorf("no cache-hit records despite repeat queries")
	}
	return nil
}
