package opt

import (
	"dynslice/internal/ir"
	"dynslice/internal/profile"
)

// This file is the dynamic component of the compacted graph (paper §3.4):
// an online algorithm that buffers the basic-block trace between path
// cuts, maps each cut-to-cut sequence either to a specialized path node
// (one timestamp for the whole sequence) or to the standalone node of each
// logical block, and introduces labeled dynamic edges only for dependences
// the static component does not cover. Every statically introduced edge is
// verified against the actually exercised dependence; mismatches fall back
// to explicit labels, so static imprecision cannot corrupt slices.
//
// Superblock nodes (call blocks with their continuation chains) execute
// discontinuously: the callee's node executions interleave between the
// head and its continuations. The builder suspends the node execution in
// the owning frame (pendState) at each call and resumes it — same
// timestamp, same execution context — when the continuation's records
// arrive. Timestamps therefore number logical-block executions, exactly as
// the paper numbers (call-containing) basic-block executions.

// bufEntry is one buffered block execution awaiting node resolution.
type bufEntry struct {
	b     *ir.Block
	stmts []stmtRec
}

// stmtRec indexes a statement execution's addresses in the builder arena.
type stmtRec struct {
	useOff, useLen int32
	defOff, defLen int32
	region         bool
	regStart       int64
	regLen         int64
}

// trackVal records how a tracked use slot (a use-use edge target) resolved
// during the current node execution.
type trackVal struct {
	key int32 // si<<8 | slot
	ok  bool
	d   DefRef
}

// execCtx is the per-node-execution context. It survives suspension at
// calls within superblock nodes; a finished execution's context is
// recycled.
type execCtx struct {
	track   []trackVal // tracked use slots resolved so far; a node has few
	anc0    InstLoc    // first resolved control ancestor of this execution
	ta0     int64
	anc0Set bool
}

// tracked returns how the tracked use slot key resolved in this execution.
func (c *execCtx) tracked(key int32) (trackVal, bool) {
	for i := len(c.track) - 1; i >= 0; i-- {
		if c.track[i].key == key {
			return c.track[i], true
		}
	}
	return trackVal{}, false
}

func (g *Graph) newExecCtx() *execCtx {
	if n := len(g.ctxPool); n > 0 {
		c := g.ctxPool[n-1]
		g.ctxPool = g.ctxPool[:n-1]
		return c
	}
	return &execCtx{}
}

func (g *Graph) freeExecCtx(c *execCtx) {
	*c = execCtx{track: c.track[:0]}
	g.ctxPool = append(g.ctxPool, c)
}

// pendState is a suspended superblock-node execution, owned by a frame.
type pendState struct {
	node    NodeID
	ts      int64
	nextOcc int32
	ctx     *execCtx
}

// contBuf is a continuation block whose records are being collected.
type contBuf struct {
	p     *pendState
	entry bufEntry
}

// nodeInst is a per-frame record of a block's most recent execution.
type nodeInst struct {
	node NodeID
	occ  int32
	ts   int64
	live bool
}

// frameCtx is one call frame's state. lastExec holds the frame's most
// recent execution of each of its function's blocks, indexed by
// Block.Index.
type frameCtx struct {
	fn          *ir.Func
	lastExec    []nodeInst
	callSite    InstLoc
	callTs      int64
	hasCallSite bool
	pending     *pendState
}

// pushFrame enters fn one call deeper. Each depth keeps its frame and
// block table across calls, so a call allocates nothing once the depth
// has been reached before.
func (g *Graph) pushFrame(fn *ir.Func) *frameCtx {
	d := len(g.frames)
	if d == cap(g.frames) {
		g.frames = append(g.frames, nil)
	}
	g.frames = g.frames[:d+1]
	fr := g.frames[d]
	if fr == nil {
		fr = &frameCtx{}
		g.frames[d] = fr
	}
	n := len(fn.Blocks)
	le := fr.lastExec
	if cap(le) < n {
		le = make([]nodeInst, n)
	} else {
		le = le[:n]
		clear(le)
	}
	*fr = frameCtx{fn: fn, lastExec: le}
	return fr
}

// Block implements trace.Sink.
func (g *Graph) Block(b *ir.Block) {
	if g.pendingCont != nil {
		g.finishCont()
	}
	if len(g.buf) > 0 && g.cuts.Between(g.buf[len(g.buf)-1].b, b) {
		g.flush()
	}
	fr := g.topFrame(b)
	if fr.pending != nil {
		p := fr.pending
		n := g.nodes[p.node]
		if int(p.nextOcc) < len(n.Occs) && n.Occs[p.nextOcc].B == b {
			fr.pending = nil
			g.cont = contBuf{p: p, entry: bufEntry{b: b, stmts: g.cont.entry.stmts[:0]}}
			g.pendingCont = &g.cont
			return
		}
		fr.pending = nil // defensive: unexpected control transfer
	}
	// Reuse the slot's statement buffer from earlier flushes (reset left
	// it empty).
	if n := len(g.buf); n < cap(g.buf) {
		g.buf = g.buf[:n+1]
		g.buf[n].b = b
	} else {
		g.buf = append(g.buf, bufEntry{b: b})
	}
}

// Stmt implements trace.Sink.
func (g *Graph) Stmt(s *ir.Stmt, uses, defs []int64) {
	uo := int32(len(g.arena))
	g.arena = append(g.arena, uses...)
	do := int32(len(g.arena))
	g.arena = append(g.arena, defs...)
	rec := stmtRec{
		useOff: uo, useLen: int32(len(uses)),
		defOff: do, defLen: int32(len(defs)),
	}
	if g.pendingCont != nil {
		g.pendingCont.entry.stmts = append(g.pendingCont.entry.stmts, rec)
		return
	}
	e := &g.buf[len(g.buf)-1]
	e.stmts = append(e.stmts, rec)
}

// RegionDef implements trace.Sink.
func (g *Graph) RegionDef(s *ir.Stmt, start, length int64) {
	rec := stmtRec{region: true, regStart: start, regLen: length}
	if g.pendingCont != nil {
		g.pendingCont.entry.stmts = append(g.pendingCont.entry.stmts, rec)
		return
	}
	e := &g.buf[len(g.buf)-1]
	e.stmts = append(e.stmts, rec)
}

// End implements trace.Sink. The frozen graph keeps its last-definition
// table in an allocation of exactly its length and drops the builder
// scratch.
func (g *Graph) End() {
	if g.pendingCont != nil {
		g.finishCont()
	}
	if len(g.buf) > 0 {
		g.flush()
	}
	g.lastDef = ir.TrimTable(g.lastDef)
	g.frames, g.buf, g.arena, g.ctxPool, g.cont = nil, nil, nil, nil, contBuf{}
	g.Finalize()
	g.flushTelemetry()
}

// topFrame returns the current frame, lazily creating the root frame.
func (g *Graph) topFrame(b *ir.Block) *frameCtx {
	if len(g.frames) == 0 {
		g.pushFrame(b.Fn)
	}
	return g.frames[len(g.frames)-1]
}

// finishCont resumes a suspended superblock-node execution with the
// collected continuation records.
func (g *Graph) finishCont() {
	pc := g.pendingCont
	g.pendingCont = nil
	g.processNode(pc.p.node, pc.p.nextOcc, []bufEntry{pc.entry}, pc.p.ts, pc.p.ctx)
	g.arena = g.arena[:0]
}

// flush resolves the buffered cut-to-cut block sequence to graph nodes and
// processes the buffered records.
func (g *Graph) flush() {
	if len(g.buf) > 1 {
		if nid, ok := g.lookupPath(); ok {
			g.processNode(nid, 0, g.buf, -1, nil)
			g.reset()
			return
		}
	}
	for i := range g.buf {
		loc := g.blockLoc[g.buf[i].b.ID]
		g.processNode(loc.node, loc.occ, g.buf[i:i+1], -1, nil)
	}
	g.reset()
}

func (g *Graph) reset() {
	for i := range g.buf {
		g.buf[i].stmts = g.buf[i].stmts[:0]
	}
	g.buf = g.buf[:0]
	g.arena = g.arena[:0]
}

func seqKeyOf(buf []bufEntry) string {
	blocks := make([]*ir.Block, len(buf))
	for i := range buf {
		blocks[i] = buf[i].b
	}
	return profile.SeqKey(blocks)
}

// lookupPath resolves the buffered sequence against the specialized-path
// table using an incrementally maintained key (no per-flush allocation on
// the miss path, which is the common one).
func (g *Graph) lookupPath() (NodeID, bool) {
	g.keyScratch = g.keyScratch[:0]
	var tmp [10]byte
	for i := range g.buf {
		v := uint64(g.buf[i].b.ID)
		n := 0
		for v >= 0x80 {
			tmp[n] = byte(v) | 0x80
			v >>= 7
			n++
		}
		tmp[n] = byte(v)
		n++
		g.keyScratch = append(g.keyScratch, tmp[:n]...)
	}
	nid, ok := g.pathByKey[string(g.keyScratch)]
	return nid, ok
}

// processNode executes entries as occurrences startOcc.. of node nid. A
// negative ts allocates a fresh timestamp (new node execution); otherwise
// the execution resumes with the given timestamp and context.
func (g *Graph) processNode(nid NodeID, startOcc int32, entries []bufEntry, ts int64, ctx *execCtx) {
	n := g.nodes[nid]
	if ts < 0 {
		ts = g.ts
		g.ts++
	}
	if ctx == nil {
		ctx = g.newExecCtx()
	}
	suspended := false
	owner := g.topFrame(entries[0].b)

	for oi := range entries {
		b := entries[oi].b
		occIdx := startOcc + int32(oi)
		fr := g.frames[len(g.frames)-1]
		occ := &n.Occs[occIdx]
		g.processCD(n, occ, b, ts, fr, ctx)
		if b.Index < len(fr.lastExec) {
			fr.lastExec[b.Index] = nodeInst{node: nid, occ: occIdx, ts: ts, live: true}
		}

		si := occ.StmtOff
		for ri := range entries[oi].stmts {
			rec := &entries[oi].stmts[ri]
			sc := &n.Stmts[si]
			loc := InstLoc{Node: nid, Stmt: si}
			if rec.region {
				g.define(rec.regStart, rec.regStart+rec.regLen, loc, ts)
				si++
				continue
			}
			for k := int32(0); k < rec.useLen; k++ {
				g.processUse(nid, n, si, k, g.arena[rec.useOff+k], ts, ctx)
			}
			for k := int32(0); k < rec.defLen; k++ {
				a := g.arena[rec.defOff+k]
				g.define(a, a+1, loc, ts)
			}
			switch sc.S.Op {
			case ir.OpCall:
				// Suspend this node execution in the owning frame and
				// enter the callee.
				if int(occIdx)+1 < len(n.Occs) {
					owner.pending = &pendState{node: nid, ts: ts, nextOcc: occIdx + 1, ctx: ctx}
					suspended = true
				}
				fr2 := g.pushFrame(sc.S.Callee)
				fr2.callSite = loc
				fr2.callTs = ts
				fr2.hasCallSite = true
			case ir.OpReturn:
				if len(g.frames) > 0 {
					g.frames = g.frames[:len(g.frames)-1]
				}
			}
			si++
		}
	}
	if !suspended {
		g.freeExecCtx(ctx)
	}
	g.maybeFlush()
}

// Reserve sizes the last-definition table for an address space of n
// words, the Result.Watermark of an earlier run on the same input, so
// that the build never regrows it and, when the highest address is
// defined, End keeps it without a copy. A wrong n costs only growth.
// Call it before the first event.
func (g *Graph) Reserve(n int64) { g.lastDef = ir.ReserveTable(g.lastDef, n) }

// define records statement copy loc, executing at ts, as the last
// definition of the addresses [lo, hi), growing the table to cover them.
func (g *Graph) define(lo, hi int64, loc InstLoc, ts int64) {
	if hi > int64(len(g.lastDef)) {
		g.lastDef = ir.GrowTable(g.lastDef, int(hi))
	}
	d := defSlot{ts1: ts + 1, loc: loc}
	for a := lo; a < hi; a++ {
		g.lastDef[a] = d
	}
}

// processUse handles one use-slot execution: verify static coverage, else
// record an explicit label.
func (g *Graph) processUse(nid NodeID, n *Node, si, slot int32, addr int64, ts int64, ctx *execCtx) {
	g.elim.UseSlots++
	d, ok := g.defOf(addr)
	if n.tracked(si, slot) {
		ctx.track = append(ctx.track, trackVal{key: si<<8 | slot, ok: ok, d: d})
	}
	us := n.useSet(si, slot)
	if !ok {
		// A use with no producer: an adaptive default would wrongly infer
		// one for this timestamp. Tombstone (Td < 0) the timestamp if a
		// rule is adopted, and prevent adoption otherwise.
		g.elim.NoProducer++
		switch us.Default.Mode {
		case DefDelta, DefConst:
			g.appendDataLabel(us, us.Default.Tgt, Pair{Td: -1, Tu: ts})
		default:
			us.Default.kill()
		}
		return
	}
	switch us.Static {
	case SDU, SDUPartial:
		if d.Loc.Node == nid && d.Loc.Stmt == us.StTgtStmt && d.Ts == ts {
			g.elim.OPT1DU++
			return // inferable: td == tu within this node execution
		}
	case SUU:
		if tv, has := ctx.tracked(us.StTgtStmt<<8 | us.StTgtSlot); has && tv.ok && tv.d == d {
			g.elim.OPT2UU++
			return // same producing instance as the earlier use
		}
	case SNone:
		if g.cfg.AdaptiveDeltas {
			wasWarm := us.Default.Mode == DefWarm || us.Default.Mode == DefNone
			if us.Default.observe(d.Loc, d.Ts, ts) {
				g.elim.AdaptiveData++
				return
			}
			if wasWarm && (us.Default.Mode == DefDelta || us.Default.Mode == DefConst) {
				g.adaptiveData++
			}
		}
	}
	// Explicit label on a dynamic edge to the producing statement copy.
	g.elim.DataLabels++
	g.appendDataLabel(us, d.Loc, Pair{Td: d.Ts, Tu: ts})
}

// appendDataLabel records a label on the slot's dynamic edge to tgt,
// creating the edge (with a cluster-shared list when applicable) on first
// use.
func (g *Graph) appendDataLabel(us *UseEdgeSet, tgt InstLoc, p Pair) {
	var edge *DynEdge
	for i := range us.Dyn {
		if us.Dyn[i].Tgt == tgt {
			edge = &us.Dyn[i]
			break
		}
	}
	if edge == nil {
		var l *Labels
		if us.ClusterID >= 0 && g.StmtAt(tgt).ID == us.ClusterDef {
			l = g.clusterList(us.ClusterID, tgt.Node)
		} else {
			l = g.newLabels(false, false)
		}
		us.Dyn = append(us.Dyn, DynEdge{Tgt: tgt, L: l})
		edge = &us.Dyn[len(us.Dyn)-1]
	}
	if !edge.L.Append(g.mem, p) {
		g.elim.OPT3Dedup++
	}
}

// processCD handles one block-occurrence execution: determine the dynamic
// control ancestor (most recent same-frame static ancestor, or the call
// site for entry-level blocks), verify static coverage, else label.
func (g *Graph) processCD(n *Node, occ *Occ, b *ir.Block, ts int64, fr *frameCtx, ctx *execCtx) {
	g.elim.CDExecs++
	var anc nodeInst
	for _, h := range b.CDAncestors {
		if h.Index >= len(fr.lastExec) {
			continue // corrupt trace: a block outside its function's frame
		}
		e := fr.lastExec[h.Index]
		if !e.live {
			continue
		}
		// Most recent execution; equal timestamps mean the same node
		// execution, where the later occurrence is the more recent one.
		if !anc.live || e.ts > anc.ts || (e.ts == anc.ts && e.occ > anc.occ) {
			anc = e
		}
	}
	var tgt InstLoc
	var ta int64
	switch {
	case anc.live:
		ancNode := g.nodes[anc.node]
		ancOcc := ancNode.Occs[anc.occ]
		termIdx := ancOcc.StmtOff + int32(len(ancOcc.B.Stmts)) - 1
		tgt = InstLoc{Node: anc.node, Stmt: termIdx}
		ta = anc.ts
	case fr.hasCallSite && b == b.Fn.Entry():
		// Interprocedural control dependence attaches to the function
		// entry only (see the FP builder for rationale).
		tgt = fr.callSite
		ta = fr.callTs
	default:
		// No controlling instance: tombstone or veto the adaptive default
		// exactly as processUse does for producerless uses.
		g.elim.NoAncestor++
		switch occ.CD.Default.Mode {
		case DefDelta, DefConst:
			g.appendCDLabel(&occ.CD, occ.CD.Default.Tgt, Pair{Td: -1, Tu: ts})
		default:
			occ.CD.Default.kill()
		}
		return
	}
	if !ctx.anc0Set {
		ctx.anc0, ctx.ta0, ctx.anc0Set = tgt, ta, true
	}

	switch occ.CD.Static {
	case CDLocal:
		if anc.live && anc.node == n.ID && anc.ts == ts && anc.occ == occ.CD.StTgtOcc {
			g.elim.OPT5Local++
			return
		}
	case CDDelta:
		if tgt == occ.CD.StTgt && ta == ts-occ.CD.Delta {
			g.elim.OPT4Delta++
			return
		}
	case CDSame:
		if ctx.anc0Set && tgt == ctx.anc0 && ta == ctx.ta0 {
			g.elim.OPT5Same++
			return
		}
	case CDNone:
		if g.cfg.AdaptiveDeltas {
			wasWarm := occ.CD.Default.Mode == DefWarm || occ.CD.Default.Mode == DefNone
			if occ.CD.Default.observe(tgt, ta, ts) {
				g.elim.AdaptiveCD++
				return
			}
			if wasWarm && (occ.CD.Default.Mode == DefDelta || occ.CD.Default.Mode == DefConst) {
				g.adaptiveCD++
			}
		}
	}
	g.elim.CDLabels++
	g.appendCDLabel(&occ.CD, tgt, Pair{Td: ta, Tu: ts})
}

// appendCDLabel records a label on the occurrence's dynamic control edge
// to tgt, creating the edge on first use.
func (g *Graph) appendCDLabel(cd *CDEdgeSet, tgt InstLoc, p Pair) {
	var edge *CDDynEdge
	for i := range cd.Dyn {
		if cd.Dyn[i].Tgt == tgt {
			edge = &cd.Dyn[i]
			break
		}
	}
	if edge == nil {
		var l *Labels
		if cd.ClusterID >= 0 {
			l = g.clusterList(cd.ClusterID, tgt.Node)
		} else {
			l = g.newLabels(false, true)
		}
		cd.Dyn = append(cd.Dyn, CDDynEdge{Tgt: tgt, L: l})
		edge = &cd.Dyn[len(cd.Dyn)-1]
	}
	if !edge.L.Append(g.mem, p) {
		g.elim.OPT6Dedup++
	}
}
