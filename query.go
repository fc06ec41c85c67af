package slicer

import (
	"fmt"
	"time"

	"dynslice/internal/slicing"
	"dynslice/internal/slicing/explain"
	"dynslice/internal/slicing/plan"
	"dynslice/internal/telemetry/qtrace"
	"dynslice/internal/telemetry/querylog"
)

// query is the event of one façade or engine call. It holds the call's
// only start clock read, owns the optional causal trace, carries the
// plan of the ladder rung being tried, and collects the call's audit
// records. finish publishes them all at once, so the flight recorder,
// the workload stats, the trace and its exemplars see the same numbers.
// A nil *query — the recording has no log, stats or tracer attached —
// makes every method a no-op.
type query struct {
	rec   *Recording
	kind  string
	batch int // batch size, 0 for a single criterion
	start time.Time
	tr    *qtrace.Trace
	span  qtrace.SpanRef // parent of the current rung's exec span

	out        qtrace.Outcome
	planReason string

	// The records collected so far: first, then more. The inline first
	// record keeps a single query free of allocations of its own.
	first querylog.Record
	more  []querylog.Record
	n     int
}

// batchOf is the batch size a call of kind over addrs reports.
func batchOf(kind string, addrs []int64) int {
	if kind == querylog.KindBatch {
		return len(addrs)
	}
	return 0
}

// newQuery starts q as the event of one call of kind over addrs and
// returns it, or nil when the recording has no observer attached. The
// caller owns q's storage.
func (r *Recording) newQuery(q *query, kind string, addrs []int64) *query {
	if r.qlog == nil && r.qstats == nil && r.qtr == nil {
		return nil
	}
	q.rec, q.kind, q.batch = r, kind, batchOf(kind, addrs)
	q.start = time.Now()
	q.tr = r.qtr.StartQuery(kind, addrs[0], q.batch, q.start)
	q.span = q.tr.Root()
	return q
}

// add collects one record, stamped with a fresh query ID and the call's
// start, plan, source and trace, and returns the IDs that link a Slice
// to it.
func (q *query) add(r querylog.Record) (uint64, qtrace.TraceID) {
	if q == nil {
		return 0, 0
	}
	r.ID = q.rec.qlog.NextID()
	r.Start = q.start
	r.Plan, r.PlanReason = q.out.Plan, q.planReason
	r.Source = q.rec.source
	r.TraceID = q.tr.ID()
	if q.n == 0 {
		q.first = r
	} else {
		q.more = append(q.more, r)
	}
	q.n++
	return r.ID, r.TraceID
}

// hit collects the record of one criterion answered from the engine
// cache. The cached Slice keeps the IDs of the query that computed it.
func (q *query) hit(addr int64, sl *Slice, backend string) {
	if q == nil {
		return
	}
	q.add(querylog.Record{
		Backend: backend, Kind: q.kind, Addr: addr, Batch: q.batch,
		Latency: time.Since(q.start), CacheHit: true,
		Stmts: sl.Stmts, Lines: len(sl.Lines),
	})
}

// cached marks the call as answered wholly from the engine cache (hit)
// or as a cache miss.
func (q *query) cached(hit bool) {
	if q == nil {
		return
	}
	q.out.CacheHit, q.out.CacheMiss = hit, !hit
}

// root returns the trace's root span (inert without a tracer).
func (q *query) root() qtrace.SpanRef {
	if q == nil {
		return qtrace.SpanRef{}
	}
	return q.tr.Root()
}

// planned records the planner's decision: its choice becomes the plan
// of every later record and of the outcome, and a "plan" span carries
// the chosen backend, the reason and the per-backend cost estimates.
func (q *query) planned(d plan.Decision) {
	if q == nil {
		return
	}
	q.out.Plan = d.Backend
	if q.tr == nil {
		return
	}
	psp := q.tr.Root().Child("plan").Str("backend", d.Backend).Str("reason", d.Reason)
	for _, name := range plannedCostOrder(d.CostMs) {
		psp.Str("cost/"+name, fmt.Sprintf("%.3fms", d.CostMs[name]))
	}
	psp.End()
}

// rung points q at one ladder rung: why the rung runs, and the attempt
// span its exec span nests under.
func (q *query) rung(reason string, span qtrace.SpanRef) {
	if q == nil {
		return
	}
	q.planReason, q.span = reason, span
}

// execSpan opens the exec span of one backend call.
func (q *query) execSpan(backend string) qtrace.SpanRef {
	if q == nil || q.tr == nil {
		return qtrace.SpanRef{}
	}
	return q.span.Child("exec/" + backend)
}

// finish publishes the event once. The tracer gets the outcome; then
// each record goes to the log and to the stats, with the trace as its
// exemplar when the tracer retained it, so an exemplar's value is its
// own record's latency. backend is the one that answered (when err is
// nil).
func (q *query) finish(backend string, err error) {
	if q == nil {
		return
	}
	if err != nil {
		q.out.Err = querylog.Classify(err)
	} else {
		q.out.Backend = backend
	}
	q.out.QueryID = q.first.ID
	var exemplar qtrace.TraceID
	if q.rec.qtr.Finish(q.tr, q.out) {
		exemplar = q.tr.ID()
	}
	for i := 0; i < q.n; i++ {
		r := &q.first
		if i > 0 {
			r = &q.more[i-1]
		}
		q.rec.qlog.Add(*r)
		q.rec.qstats.Observe(*r, exemplar)
	}
}

// direct answers one façade call as its own query.
func (s *Slicer) direct(kind string, addrs []int64) ([]*Slice, *Explanation, error) {
	var qv query
	q := s.rec.newQuery(&qv, kind, addrs)
	outs, ex, err := s.exec(q, kind, addrs)
	q.finish(s.name, err)
	return outs, ex, err
}

// explainer returns the backend's observed-query interface, or the
// error an explain against it fails with.
func (s *Slicer) explainer() (slicing.Explainer, error) {
	ex, ok := s.impl.(slicing.Explainer)
	if !ok {
		return nil, fmt.Errorf("slicer: %s does not support observed queries", s.name)
	}
	return ex, nil
}

// exec runs one backend call for q — one criterion, a batch, or an
// explain, by kind — and turns its answer into Slices, registry
// telemetry, exec-span attributes and one record per criterion. A batch
// shares its wall time evenly among its criteria, and its aggregate
// traversal stats ride on the first record. An explain call also
// returns its Explanation.
func (s *Slicer) exec(q *query, kind string, addrs []int64) ([]*Slice, *Explanation, error) {
	var observer slicing.Explainer
	var xr *explain.Recorder
	if kind == querylog.KindExplain {
		var err error
		if observer, err = s.explainer(); err != nil {
			return nil, nil, err
		}
		xr = explain.NewRecorder()
	}
	batch := batchOf(kind, addrs)
	esp := q.execSpan(s.name)
	t0 := time.Now()
	var raws []*slicing.Slice
	var st *slicing.Stats
	var err error
	switch {
	case kind == querylog.KindBatch:
		cs := make([]slicing.Criterion, len(addrs))
		for i, a := range addrs {
			cs[i] = slicing.AddrCriterion(a)
		}
		raws, st, err = s.impl.SliceAll(cs)
	case xr != nil:
		raws = make([]*slicing.Slice, 1)
		raws[0], st, err = observer.SliceObserved(slicing.AddrCriterion(addrs[0]), xr)
	default:
		raws = make([]*slicing.Slice, 1)
		raws[0], st, err = s.impl.Slice(slicing.AddrCriterion(addrs[0]))
	}
	elapsed := time.Since(t0)
	if err != nil {
		class := querylog.Classify(err)
		esp.EndErr(class)
		q.add(querylog.Record{
			Backend: s.name, Kind: kind, Addr: addrs[0], Batch: batch,
			Latency: elapsed, Err: class,
		})
		return nil, nil, err
	}
	if reg := s.rec.tel; reg != nil {
		span := "slice/"
		if xr != nil {
			span = "explain/"
			reg.Counter("slice.explained").Inc()
		}
		reg.ObserveSpan(span+s.name, elapsed)
		reg.Counter("slice.queries").Add(int64(len(raws)))
		size := reg.Histogram("slice.size")
		for _, raw := range raws {
			size.Observe(int64(raw.Len()))
		}
		if st != nil {
			reg.Counter("slice.instances").Add(st.Instances)
			reg.Counter("slice.label_probes").Add(st.LabelProbes)
		}
	}
	var ex *Explanation
	switch {
	case xr != nil:
		prof := xr.Profile()
		prof.Elapsed = elapsed
		prof.SliceStmts = raws[0].Len()
		if st != nil {
			prof.LabelProbes = st.LabelProbes
			prof.SegScans = st.SegScans
			prof.SegSkips = st.SegSkips
		}
		ex = &Explanation{Profile: prof, rec: xr, prog: s.rec.p.ir}
		esp.Int("stmts", int64(prof.SliceStmts)).
			Int("nodes_visited", prof.NodesVisited).
			Int("label_probes", prof.LabelProbes).
			Int("edges_explicit", prof.Explicit).
			Int("edges_inferred", prof.Inferred).
			Int("edges_shortcut", prof.Shortcut)
	case kind == querylog.KindBatch:
		esp.Int("criteria", int64(batch))
	default:
		esp.Int("stmts", int64(raws[0].Len()))
	}
	if st != nil {
		if xr == nil {
			esp.Int("instances", st.Instances).Int("label_probes", st.LabelProbes)
		}
		if st.SegScans > 0 || st.SegSkips > 0 {
			esp.Int("seg_scans", st.SegScans).Int("seg_skips", st.SegSkips).Int("seg_bytes", st.SegBytes)
		}
	}
	esp.End()

	outs := make([]*Slice, len(raws))
	share := elapsed / time.Duration(len(raws))
	for i, raw := range raws {
		sl := &Slice{Lines: raw.Lines(s.rec.p.ir), Stmts: raw.Len(), Time: share, raw: raw}
		r := querylog.Record{
			Backend: s.name, Kind: kind, Addr: addrs[i], Batch: batch,
			Latency: share, Stmts: sl.Stmts, Lines: len(sl.Lines),
		}
		switch {
		case ex != nil:
			// The observed query's record folds in the traversal
			// profile's edge attribution.
			p := ex.Profile
			r.Instances, r.LabelProbes = p.NodesVisited, p.LabelProbes
			r.Explicit, r.Inferred, r.Shortcut = p.Explicit, p.Inferred, p.Shortcut
		case i == 0 && st != nil:
			r.Instances, r.LabelProbes = st.Instances, st.LabelProbes
		}
		sl.QueryID, sl.TraceID = q.add(r)
		outs[i] = sl
	}
	if ex != nil {
		ex.Slice = outs[0]
	}
	return outs, ex, nil
}
