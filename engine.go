package slicer

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dynslice/internal/slicing/plan"
	"dynslice/internal/telemetry/querylog"
)

// EngineOptions configures a QueryEngine.
type EngineOptions struct {
	// Workers is ignored: every backend answers a batch in one pass on
	// the calling goroutine. It stays so that callers which still size a
	// batch pool keep building.
	Workers int
	// CacheSize is the number of slices the LRU cache retains, keyed by
	// criterion address (default: 64; negative disables caching).
	CacheSize int
}

const defaultEngineCache = 64

// QueryEngine answers slicing queries concurrently with a small LRU
// result cache. All its methods are safe for concurrent use. Repeated
// criteria — common when a user explores a fault from several variables
// that share dependences — hit the cache and cost one map lookup.
//
// An engine wraps either one fixed Slicer (Slicer.Engine) or, when
// created with Recording.Engine, the cost-based planner: each cache
// miss consults plan.Decide for the cheapest backend given the query's
// shape, which graphs are warm, and the live workload statistics, then
// walks the decision's fallback ladder until a backend answers. All
// backends return identical slices (the differential matrix proves
// it), so the shared cache and the planner only ever change latency,
// never answers.
type QueryEngine struct {
	s   *Slicer    // fixed backend; nil for a planned engine
	rec *Recording // owning recording (always set)

	mu    sync.Mutex
	cache map[int64]*list.Element // addr -> entry; nil when disabled
	lru   list.List               // front = most recent
	max   int

	hits, misses atomic.Int64
}

type cacheEntry struct {
	addr    int64
	sl      *Slice
	backend string // backend that computed the slice (for hit audit records)
}

// Engine wraps the slicer in a concurrent query engine with a fixed
// backend.
func (s *Slicer) Engine(o EngineOptions) *QueryEngine {
	e := newEngine(s.rec, o)
	e.s = s
	return e
}

// Engine returns a planned query engine: every cache miss is dispatched
// to the backend the cost-based planner picks for it (see
// docs/PLANNER.md). The planner never changes results — only which
// backend computes them.
func (r *Recording) Engine(o EngineOptions) *QueryEngine {
	return newEngine(r, o)
}

func newEngine(r *Recording, o EngineOptions) *QueryEngine {
	e := &QueryEngine{rec: r, max: o.CacheSize}
	if e.max == 0 {
		e.max = defaultEngineCache
	}
	if e.max > 0 {
		e.cache = make(map[int64]*list.Element, e.max)
	}
	return e
}

// errNoBackend is returned by a planned engine when no backend at all
// can answer the query shape.
var errNoBackend = errors.New("slicer: no backend available for this query")

// run answers a cache miss — one criterion, a batch, or an explain, by
// kind — and returns the answer with the backend that computed it. A
// fixed engine asks its one backend. A planned engine plans the query's
// shape and walks the fallback ladder: the chosen backend first, then
// the remaining candidates cheapest-first. Backend faults (a desynced
// re-execution, a missing trace file) move down the ladder; criterion
// errors are terminal — every backend would reject the same address the
// same way, because answers never differ. Every rung tried leaves its
// own records, so the failed rungs feed the planner's per-backend error
// counts.
//
// The query's causal trace records the walk as it happens: a "plan"
// span carrying the decision (chosen backend, reason, per-backend cost
// estimates), then one "attempt/<backend>" span per rung — each with an
// "acquire" child covering backend acquisition (which is where deferred
// graphs get built) — ending with the error class that demoted it, or
// cleanly for the rung that answered.
func (e *QueryEngine) run(q *query, kind string, addrs []int64) ([]*Slice, *Explanation, string, error) {
	if e.s != nil {
		outs, ex, err := e.s.exec(q, kind, addrs)
		return outs, ex, e.s.name, err
	}
	d := e.rec.PlanFor(plan.Shape{Kind: kind, Batch: len(addrs)})
	q.planned(d)
	if d.Backend == "" {
		return nil, nil, "", errNoBackend
	}
	ladder := d.Ladder()
	var lastErr error
	for i, name := range ladder {
		asp := q.root().Child("attempt/" + name)
		acq := asp.Child("acquire")
		s := e.rec.backendSlicer(name)
		acq.End()
		if s == nil {
			asp.EndErr("unavailable")
			continue
		}
		reason := d.Reason
		if i > 0 {
			reason = fmt.Sprintf("fallback from %s: %v", ladder[i-1], lastErr)
		}
		q.rung(reason, asp)
		outs, ex, err := s.exec(q, kind, addrs)
		if err == nil {
			asp.End()
			return outs, ex, s.name, nil
		}
		class := querylog.Classify(err)
		asp.EndErr(class)
		if class == "bad_criterion" {
			return nil, nil, "", err
		}
		lastErr = err
	}
	return nil, nil, "", lastErr
}

// plannedCostOrder returns the cost map's backends in a stable order so
// plan-span attributes don't depend on map iteration.
func plannedCostOrder(costs map[string]float64) []string {
	names := make([]string, 0, len(costs))
	for name := range costs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CacheStats reports cache hits and misses since the engine was created.
func (e *QueryEngine) CacheStats() (hits, misses int64) {
	return e.hits.Load(), e.misses.Load()
}

func (e *QueryEngine) lookup(addr int64) (*Slice, string, bool) {
	if e.cache == nil {
		return nil, "", false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	el, ok := e.cache[addr]
	if !ok {
		return nil, "", false
	}
	e.lru.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	return ent.sl, ent.backend, true
}

func (e *QueryEngine) insert(addr int64, sl *Slice, backend string) {
	if e.cache == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.cache[addr]; ok {
		e.lru.MoveToFront(el)
		return
	}
	e.cache[addr] = e.lru.PushFront(&cacheEntry{addr: addr, sl: sl, backend: backend})
	if e.lru.Len() > e.max {
		old := e.lru.Back()
		e.lru.Remove(old)
		delete(e.cache, old.Value.(*cacheEntry).addr)
	}
}

func (e *QueryEngine) tally(hits, misses int64) {
	e.hits.Add(hits)
	e.misses.Add(misses)
	if reg := e.rec.tel; reg != nil {
		reg.Counter("engine.cache.hits").Add(hits)
		reg.Counter("engine.cache.misses").Add(misses)
	}
}

// SliceAddr answers one address criterion, consulting the cache first.
// A hit is audited under a fresh query ID with CacheHit set, while the
// slice keeps the IDs of the query that originally computed it.
func (e *QueryEngine) SliceAddr(addr int64) (*Slice, error) {
	var qv query
	addrs := []int64{addr}
	q := e.rec.newQuery(&qv, querylog.KindSlice, addrs)
	if sl, backend, ok := e.lookup(addr); ok {
		e.tally(1, 0)
		q.hit(addr, sl, backend)
		q.cached(true)
		q.finish(backend, nil)
		return sl, nil
	}
	e.tally(0, 1)
	q.cached(false)
	outs, _, backend, err := e.run(q, querylog.KindSlice, addrs)
	q.finish(backend, err)
	if err != nil {
		return nil, err
	}
	e.insert(addr, outs[0], backend)
	return outs[0], nil
}

// SliceVar is SliceAddr on a global scalar variable.
func (e *QueryEngine) SliceVar(name string) (*Slice, error) {
	addr, err := e.rec.p.GlobalAddr(name)
	if err != nil {
		return nil, err
	}
	return e.SliceAddr(addr)
}

// Explain answers one address criterion with provenance recording
// (Slicer.ExplainAddr). Observed queries bypass the cache: the witness
// and profile are products of an actual traversal, so a cached slice
// cannot answer them. The slice itself is still inserted, so later
// SliceAddr calls for the same address hit. A planned engine plans the
// explain shape (forward slicing is never a candidate: it cannot
// attribute edges).
func (e *QueryEngine) Explain(addr int64) (*Explanation, error) {
	var qv query
	addrs := []int64{addr}
	q := e.rec.newQuery(&qv, querylog.KindExplain, addrs)
	_, ex, backend, err := e.run(q, querylog.KindExplain, addrs)
	q.finish(backend, err)
	if err != nil {
		return nil, err
	}
	e.insert(addr, ex.Slice, backend)
	return ex, nil
}

// ExplainVar is Explain on a global scalar variable.
func (e *QueryEngine) ExplainVar(name string) (*Explanation, error) {
	addr, err := e.rec.p.GlobalAddr(name)
	if err != nil {
		return nil, err
	}
	return e.Explain(addr)
}

// SliceAddrs answers a batch of criteria: cached results are returned
// directly; the distinct misses are answered by ONE batched traversal
// (SliceAddrs on the underlying slicer) on the calling goroutine. One
// shared traversal beats splitting the batch across goroutines — split
// chunks each re-walk the subgraph the criteria share, which is most of
// the work. Results are positionally aligned with addrs. A planned
// engine plans once per batch, on the distinct-miss count.
func (e *QueryEngine) SliceAddrs(addrs []int64) ([]*Slice, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	var qv query
	q := e.rec.newQuery(&qv, querylog.KindBatch, addrs)
	outs := make([]*Slice, len(addrs))
	var missSet = make(map[int64][]int) // addr -> positions in addrs
	var hits int64
	for i, a := range addrs {
		if sl, backend, ok := e.lookup(a); ok {
			outs[i] = sl
			hits++
			q.hit(a, sl, backend)
			continue
		}
		missSet[a] = append(missSet[a], i)
	}
	e.tally(hits, int64(len(missSet)))
	q.cached(len(missSet) == 0)
	if len(missSet) == 0 {
		// The whole batch came from the cache.
		q.finish("", nil)
		return outs, nil
	}
	miss := make([]int64, 0, len(missSet))
	for a := range missSet {
		miss = append(miss, a)
	}
	// Deterministic chunking: map iteration order must not decide which
	// criteria share a 64-bit mask chunk.
	sort.Slice(miss, func(i, j int) bool { return miss[i] < miss[j] })

	slices, _, backend, err := e.run(q, querylog.KindBatch, miss)
	q.finish(backend, err)
	if err != nil {
		return nil, err
	}
	for k, sl := range slices {
		e.insert(miss[k], sl, backend)
		for _, pos := range missSet[miss[k]] {
			outs[pos] = sl
		}
	}
	return outs, nil
}
