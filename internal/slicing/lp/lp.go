// Package lp implements the demand-driven "limited preprocessing" slicing
// algorithm the paper compares against (their ICSE'03 LP algorithm): the
// execution trace lives on disk, augmented with per-segment summaries
// (blocks executed, addresses defined); each slicing query performs one
// backward traversal of the trace, skipping segments the summaries prove
// irrelevant, and materializes only the dependence subgraph the query
// needs.
//
// The backward scan services all outstanding needs in a single pass:
// resolving an instance's dependences only ever creates needs at earlier
// trace positions, so needs are monotone with respect to the scan
// direction. Control-dependence needs carry a call-depth counter so that
// ancestors are matched in the correct frame even under recursion; a
// pending control need disables segment skipping (its counter must observe
// every call and return).
//
// Queries are batched natively: every need and every admitted instance
// carries a bitmask of the criteria it serves, so SliceAll answers up to
// 64 criteria per backward pass over the trace — the dominant cost —
// instead of one pass per criterion. Slice is the single-criterion
// special case of the same traversal.
package lp

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"dynslice/internal/ir"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/explain"
	"dynslice/internal/telemetry"
	"dynslice/internal/trace"
)

// Slicer answers slicing queries from an on-disk trace (or any other
// segment Source). Queries may run concurrently: each opens its own
// cursor, the layout table is read-only after construction, and the
// subgraph statistic below is lock-guarded.
type Slicer struct {
	p    *ir.Program
	path string
	segs []*trace.Segment
	src  Source

	// layouts holds, per BlockID, the record layout used to iterate a
	// block execution's flat address array.
	layouts []blockLayout

	// MaxSubgraphEdges tracks the largest demand-built subgraph (in
	// resolved dependence edges) over all queries, for the paper's Table 6.
	// Guarded by statMu; read it only after queries complete.
	MaxSubgraphEdges int64
	statMu           sync.Mutex

	// Telemetry (nil counters are inert); see SetTelemetry.
	met       *trace.Metrics
	cQueries  *telemetry.Counter
	cSegScans *telemetry.Counter
	cSegSkips *telemetry.Counter
	cSegBytes *telemetry.Counter
	cEdges    *telemetry.Counter
}

type blockLayout struct {
	useOff []int // per stmt: offset of its use addrs in the flat array
	defOff []int // per stmt: offset of its def addrs
	total  int
}

// New returns an LP slicer over a trace file written by trace.Writer.
func New(p *ir.Program, tracePath string, segs []*trace.Segment) *Slicer {
	s := &Slicer{p: p, path: tracePath, segs: segs, layouts: buildLayouts(p)}
	s.src = &fileSource{s: s}
	return s
}

// NewFromSource returns a slicer whose backward traversal materializes
// segments through src instead of the trace file — the reexec backend's
// entry point into the shared traversal.
func NewFromSource(p *ir.Program, segs []*trace.Segment, src Source) *Slicer {
	return &Slicer{p: p, segs: segs, src: src, layouts: buildLayouts(p)}
}

// SetTelemetry mints the LP counters on reg and attaches trace-read
// metrics to segment decoders. Query counters are folded in once per
// query from the per-query stats, so the scan itself carries no
// instrumentation.
func (s *Slicer) SetTelemetry(reg *telemetry.Registry) {
	s.SetTelemetryNamed(reg, "lp")
}

// SetTelemetryNamed is SetTelemetry under a different counter
// namespace, so wrappers of the shared traversal (reexec) report their
// effort under their own name.
func (s *Slicer) SetTelemetryNamed(reg *telemetry.Registry, ns string) {
	s.met = trace.NewMetrics(reg)
	s.cQueries = reg.Counter(ns + ".queries")
	s.cSegScans = reg.Counter(ns + ".seg_scans")
	s.cSegSkips = reg.Counter(ns + ".seg_skips")
	s.cSegBytes = reg.Counter(ns + ".seg_bytes")
	s.cEdges = reg.Counter(ns + ".subgraph_edges")
}

// buildLayouts computes every block's record layout, indexed by BlockID,
// with the per-statement offsets of all blocks sharing one array.
func buildLayouts(p *ir.Program) []blockLayout {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Stmts)
	}
	offs := make([]int, 2*n)
	ls := make([]blockLayout, len(p.Blocks))
	for _, b := range p.Blocks {
		k := len(b.Stmts)
		l := &ls[b.ID]
		l.useOff, l.defOff, offs = offs[:k:k], offs[k:2*k:2*k], offs[2*k:]
		off := 0
		for i, st := range b.Stmts {
			l.useOff[i] = off
			if st.Op == ir.OpDeclArr {
				off += 2 // start, length
				l.defOff[i] = l.useOff[i]
				continue
			}
			off += len(st.Uses)
			l.defOff[i] = off
			off += st.NumDefs
		}
		l.total = off
	}
	return ls
}

// pos is a trace position: block ordinal plus statement index.
type pos struct {
	ord int64
	idx int
}

func (a pos) before(b pos) bool {
	if a.ord != b.ord {
		return a.ord < b.ord
	}
	return a.idx < b.idx
}

// seedOrd is the sentinel ordinal of criterion seed needs ("the last
// definition anywhere in the trace"), past every real position.
const seedOrd = int64(1) << 62

type defNeed struct {
	use  pos    // the definition must precede this position
	mask uint64 // criteria awaiting this definition
	stmt ir.StmtID
	slot int32 // consumer statement + use slot, for witness recording
}

// cdNeed awaits the control ancestor of one block instance: the latest
// earlier execution, in the same frame, of a block in
// block.CDAncestors. A block with no ancestors is entry-like and resolves
// at the call that created its frame.
type cdNeed struct {
	block    *ir.Block
	startOrd int64 // the instance's ordinal: only earlier executions match
	depth    int   // callee frames between the scan position and the instance's frame
	mask     uint64
	fromStmt ir.StmtID // instance the control need was created for
}

// locCrit is a pending statement-instance criterion (mode B).
type locCrit struct {
	stmt ir.StmtID
	ord  int64
	mask uint64
	done bool
}

type query struct {
	s        *Slicer
	outs     []*slicing.Slice // one per criterion bit
	stats    *slicing.Stats
	needDefs map[int64][]defNeed
	needCDs  []cdNeed // pending control needs only, in creation order
	edges    int64

	// Visited words, flat instead of map[{id, ord}]uint64: admit only ever
	// keys with the ordinal of the block execution being processed, so one
	// mask word per statement (per block for control needs) suffices,
	// invalidated lazily when the stamp trails the current ordinal.
	visStamp []int64 // by StmtID: ordinal visMask is valid for (-1 = never)
	visMask  []uint64
	cdStamp  []int64 // by BlockID: ordinal cdMask is valid for
	cdMask   []uint64
	obs      *explain.Recorder // single-criterion observed queries only

	// Criterion plumbing.
	seedAddrs map[int64]uint64 // address -> criteria bits seeded on it (mode A)
	hitMask   uint64           // bits whose seed address was defined somewhere
	locs      []locCrit

	// Free list of BlockExec address buffers: a segment's buffers are
	// recycled into the next segment's decode (same idea as the pooled
	// record batches behind trace.Async), so a backward scan reaches
	// steady state after one segment instead of allocating one slice per
	// block execution for the whole trace.
	bufFree [][]int64
}

// getBuf returns an empty address buffer with capacity >= n, reusing a
// recycled one when possible.
func (q *query) getBuf(n int) []int64 {
	for len(q.bufFree) > 0 {
		b := q.bufFree[len(q.bufFree)-1]
		q.bufFree = q.bufFree[:len(q.bufFree)-1]
		if cap(b) >= n {
			return b[:0]
		}
	}
	return make([]int64, 0, n)
}

// recycleBufs returns a processed segment's address buffers to the free
// list (bounded so one giant segment cannot pin memory).
func (q *query) recycleBufs(execs []BlockExec) {
	for i := range execs {
		if execs[i].Addrs == nil || len(q.bufFree) >= 4096 {
			break
		}
		q.bufFree = append(q.bufFree, execs[i].Addrs)
		execs[i].Addrs = nil
	}
}

var _ slicing.Explainer = (*Slicer)(nil)

// Slice implements slicing.Slicer as the single-criterion case of the
// batched traversal.
func (s *Slicer) Slice(c slicing.Criterion) (*slicing.Slice, *slicing.Stats, error) {
	outs, stats, err := s.sliceAll([]slicing.Criterion{c}, nil)
	if err != nil {
		return nil, nil, err
	}
	return outs[0], stats, nil
}

// SliceObserved implements slicing.Explainer: a single-criterion query
// whose backward scan records every resolved dependence into rec. LP
// materializes dependences on demand from the trace, so all hops carry
// explain.KindExplicit; the traversal-effort counters (segment scans and
// skips) land in the returned stats as usual.
func (s *Slicer) SliceObserved(c slicing.Criterion, rec *explain.Recorder) (*slicing.Slice, *slicing.Stats, error) {
	outs, stats, err := s.sliceAll([]slicing.Criterion{c}, rec)
	if err != nil {
		return nil, nil, err
	}
	return outs[0], stats, nil
}

// SliceAll implements slicing.MultiSlicer: one backward trace scan per
// 64-criterion chunk, with per-criterion bitmasks on every need. Each
// returned slice is identical to what Slice would produce; stats
// aggregate the batch (a segment scanned once for 25 criteria counts
// once).
func (s *Slicer) SliceAll(cs []slicing.Criterion) ([]*slicing.Slice, *slicing.Stats, error) {
	return s.sliceAll(cs, nil)
}

// sliceAll is the shared batched traversal; obs is only ever non-nil for
// single-criterion observed queries.
func (s *Slicer) sliceAll(cs []slicing.Criterion, obs *explain.Recorder) ([]*slicing.Slice, *slicing.Stats, error) {
	outs := make([]*slicing.Slice, len(cs))
	stats := &slicing.Stats{}
	var edges int64
	for base := 0; base < len(cs); base += 64 {
		chunk := cs[base:min(base+64, len(cs))]
		q := s.newQuery(chunk, stats, obs)
		if err := q.scan(); err != nil {
			return nil, nil, err
		}
		for j := range chunk {
			if q.hitMask&(uint64(1)<<j) == 0 {
				return nil, nil, fmt.Errorf("lp: address %d was never defined", chunk[j].Addr)
			}
			outs[base+j] = q.outs[j]
		}
		edges += q.edges
	}
	s.statMu.Lock()
	if edges > s.MaxSubgraphEdges {
		s.MaxSubgraphEdges = edges
	}
	s.statMu.Unlock()
	s.cQueries.Add(int64(len(cs)))
	s.cSegScans.Add(stats.SegScans)
	s.cSegSkips.Add(stats.SegSkips)
	s.cSegBytes.Add(stats.SegBytes)
	s.cEdges.Add(edges)
	return outs, stats, nil
}

// newQuery seeds one scan for up to 64 criteria, bit j serving cs[j].
func (s *Slicer) newQuery(cs []slicing.Criterion, stats *slicing.Stats, obs *explain.Recorder) *query {
	q := &query{
		s:         s,
		outs:      make([]*slicing.Slice, len(cs)),
		stats:     stats,
		needDefs:  map[int64][]defNeed{},
		visStamp:  newStamps(len(s.p.Stmts)),
		visMask:   make([]uint64, len(s.p.Stmts)),
		cdStamp:   newStamps(len(s.p.Blocks)),
		cdMask:    make([]uint64, len(s.p.Blocks)),
		seedAddrs: map[int64]uint64{},
		obs:       obs,
	}
	for j, c := range cs {
		q.outs[j] = slicing.NewSlice()
		bit := uint64(1) << j
		if c.Stmt >= 0 {
			q.locs = append(q.locs, locCrit{stmt: c.Stmt, ord: c.TS, mask: bit})
			q.hitMask |= bit // mode B has no never-defined failure case
		} else {
			q.seedAddrs[c.Addr] |= bit
			q.needDefs[c.Addr] = append(q.needDefs[c.Addr], defNeed{use: pos{ord: seedOrd}, mask: bit})
		}
	}
	return q
}

func (q *query) scan() error {
	cur, err := q.s.src.Open()
	if err != nil {
		return err
	}
	defer cur.Close()

	for si := len(q.s.segs) - 1; si >= 0; si-- {
		seg := q.s.segs[si]
		if q.idle() {
			return nil
		}
		if q.canSkip(seg) {
			q.stats.SegSkips++
			continue
		}
		q.stats.SegScans++
		q.stats.SegBytes += segBytes(q.s.segs, si)
		execs, err := cur.Segment(seg, q.getBuf)
		if err != nil {
			return err
		}
		for i := len(execs) - 1; i >= 0; i-- {
			q.processBlockExec(&execs[i])
		}
		q.recycleBufs(execs)
	}
	return nil
}

// segBytes estimates the on-disk size of segment si from the next
// segment's start offset. Segments are written back to back, so the
// delta is exact for all but the final segment, whose end offset the
// index does not record (reported as 0).
func segBytes(segs []*trace.Segment, si int) int64 {
	if si+1 < len(segs) {
		return segs[si+1].Off - segs[si].Off
	}
	return 0
}

// idle reports whether no needs remain.
func (q *query) idle() bool {
	if len(q.needDefs) != 0 || len(q.needCDs) != 0 {
		return false
	}
	for i := range q.locs {
		if !q.locs[i].done {
			return false
		}
	}
	return true
}

// canSkip decides from the segment summary whether scanning it can be
// avoided. Pending control needs always force a scan (their depth counters
// must see every call and return in order).
func (q *query) canSkip(seg *trace.Segment) bool {
	if len(q.needCDs) > 0 {
		return false
	}
	for i := range q.locs {
		lc := &q.locs[i]
		if !lc.done && lc.ord >= seg.StartOrd && lc.ord < seg.EndOrd {
			return false
		}
	}
	for a := range q.needDefs {
		if seg.MayDefine(a) {
			return false
		}
	}
	return true
}

func (q *query) processBlockExec(be *BlockExec) {
	lay := &q.s.layouts[be.B.ID]

	// Locate criterion instances.
	for i := range q.locs {
		lc := &q.locs[i]
		if lc.done || be.Ord != lc.ord {
			continue
		}
		st := q.s.p.Stmt(lc.stmt)
		if st.Block == be.B {
			lc.done = true
			q.obs.Criterion(st.ID, be.Ord)
			q.admit(st, be, lay, lc.mask)
		}
	}

	// Control-dependence needs from later instances observe this block
	// execution first: a matched ancestor's terminator may itself use
	// values defined earlier in this very block execution, so its data
	// needs must exist before the statement scan below.
	q.updateCDs(be, lay)

	// Statements in reverse order: defs may satisfy pending needs.
	for idx := len(be.B.Stmts) - 1; idx >= 0; idx-- {
		st := be.B.Stmts[idx]
		here := pos{ord: be.Ord, idx: idx}
		if st.Op == ir.OpDeclArr {
			start, length := be.Addrs[lay.useOff[idx]], be.Addrs[lay.useOff[idx]+1]
			q.resolveRegion(st, be, lay, here, start, length)
			continue
		}
		for di := 0; di < st.NumDefs; di++ {
			a := be.Addrs[lay.defOff[idx]+di]
			q.resolveDefs(st, be, lay, here, a)
		}
	}
}

// resolveDefs satisfies pending needs on address a with the definition at
// position here.
func (q *query) resolveDefs(st *ir.Stmt, be *BlockExec, lay *blockLayout, here pos, a int64) {
	needs := q.needDefs[a]
	if len(needs) == 0 {
		return
	}
	kept := needs[:0]
	var hit uint64
	for _, n := range needs {
		if here.before(n.use) {
			hit |= n.mask
			q.edges++
			if n.use.ord == seedOrd {
				q.hitMask |= n.mask
				q.obs.Criterion(st.ID, be.Ord)
			} else {
				q.obs.Edge(n.stmt, n.use.ord, false, n.slot, st.ID, be.Ord, explain.KindExplicit, false)
			}
		} else {
			kept = append(kept, n)
		}
	}
	if len(kept) == 0 {
		delete(q.needDefs, a)
	} else {
		q.needDefs[a] = kept
	}
	if hit != 0 {
		q.admit(st, be, lay, hit)
	}
}

func (q *query) resolveRegion(st *ir.Stmt, be *BlockExec, lay *blockLayout, here pos, start, length int64) {
	var hit uint64
	for a := range q.needDefs {
		if a < start || a >= start+length {
			continue
		}
		needs := q.needDefs[a]
		kept := needs[:0]
		for _, n := range needs {
			if here.before(n.use) {
				hit |= n.mask
				q.edges++
				if n.use.ord == seedOrd {
					q.hitMask |= n.mask
					q.obs.Criterion(st.ID, be.Ord)
				} else {
					q.obs.Edge(n.stmt, n.use.ord, false, n.slot, st.ID, be.Ord, explain.KindExplicit, false)
				}
			} else {
				kept = append(kept, n)
			}
		}
		if len(kept) == 0 {
			delete(q.needDefs, a)
		} else {
			q.needDefs[a] = kept
		}
	}
	if hit != 0 {
		q.admit(st, be, lay, hit)
	}
}

// newStamps returns n ordinal stamps, all "never".
func newStamps(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// admit adds a statement instance to the slices in mask and queues its
// needs for the criteria bits that reach it for the first time.
func (q *query) admit(st *ir.Stmt, be *BlockExec, lay *blockLayout, mask uint64) {
	if q.visStamp[st.ID] != be.Ord {
		q.visStamp[st.ID] = be.Ord
		q.visMask[st.ID] = 0
	}
	nv := mask &^ q.visMask[st.ID]
	if nv == 0 {
		return
	}
	if q.visMask[st.ID] == 0 {
		q.stats.Instances++
		q.obs.Visit(st.ID, be.Ord)
	}
	q.visMask[st.ID] |= nv
	for m := nv; m != 0; m &= m - 1 {
		q.outs[bits.TrailingZeros64(m)].Add(st.ID)
	}

	// Data needs: one per use slot, at this instance's position.
	if st.Op != ir.OpDeclArr {
		for ui := 0; ui < len(st.Uses); ui++ {
			a := be.Addrs[lay.useOff[st.Idx]+ui]
			q.needDefs[a] = append(q.needDefs[a], defNeed{
				use: pos{ord: be.Ord, idx: st.Idx}, mask: nv, stmt: st.ID, slot: int32(ui),
			})
		}
	}

	// Control need for the enclosing block instance (once per instance and
	// criterion bit).
	if q.cdStamp[st.Block.ID] != be.Ord {
		q.cdStamp[st.Block.ID] = be.Ord
		q.cdMask[st.Block.ID] = 0
	}
	cnv := nv &^ q.cdMask[st.Block.ID]
	if cnv == 0 {
		return
	}
	q.cdMask[st.Block.ID] |= cnv
	if len(st.Block.CDAncestors) == 0 {
		// Only function entries carry the interprocedural (call-site)
		// control dependence; other ancestor-free blocks execute
		// unconditionally within their frame (see the FP builder).
		if st.Block.Fn == q.s.p.Main || st.Block != st.Block.Fn.Entry() {
			return
		}
	}
	q.needCDs = append(q.needCDs, cdNeed{block: st.Block, startOrd: be.Ord, mask: cnv, fromStmt: st.ID})
}

// updateCDs advances every pending control need over this block
// execution and drops the needs it resolves at once, compacting needCDs
// in place, so later block executions walk only live needs. Needs that
// admit appends meanwhile carry this block execution's ordinal, so they
// are not yet eligible; they follow the survivors in creation order.
func (q *query) updateCDs(be *BlockExec, lay *blockLayout) {
	pending := len(q.needCDs)
	if pending == 0 {
		return
	}
	term := be.B.Terminator()
	kept := 0
	for i := 0; i < pending; i++ {
		// admit may grow (and move) needCDs: index it afresh each time.
		n := q.needCDs[i]
		if be.Ord < n.startOrd {
			switch {
			case term != nil && term.Op == ir.OpReturn:
				n.depth++
			case term != nil && term.Op == ir.OpCall && n.depth > 0:
				// A same-frame call block is never a branch ancestor; it
				// only unwinds the depth count.
				n.depth--
			case term != nil && term.Op == ir.OpCall:
				// Frame-creating call: resolves entry-like needs; intra-
				// procedural needs cannot match beyond this boundary.
				if len(n.block.CDAncestors) == 0 {
					q.resolveCD(n, term, be, lay)
				}
				continue
			case n.depth == 0 && slices.Contains(n.block.CDAncestors, be.B):
				q.resolveCD(n, term, be, lay)
				continue
			}
		}
		q.needCDs[kept] = n
		kept++
	}
	q.needCDs = append(q.needCDs[:kept], q.needCDs[pending:]...)
}

// resolveCD admits term, the terminator of block execution be, as the
// control ancestor that n awaited.
func (q *query) resolveCD(n cdNeed, term *ir.Stmt, be *BlockExec, lay *blockLayout) {
	q.edges++
	q.obs.Edge(n.fromStmt, n.startOrd, false, -1, term.ID, be.Ord, explain.KindExplicit, true)
	q.admit(term, be, lay, n.mask)
}
