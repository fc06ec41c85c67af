package opt

import (
	"fmt"

	"dynslice/internal/slicing"
	"dynslice/internal/slicing/batch"
	"dynslice/internal/slicing/explain"
	"dynslice/internal/slicing/labelblock"
)

// Slicing traversal (paper §3.4 "Dynamic Slicing" and Fig. 13): for each
// dependence of an instance, search the dynamic labels first; if the
// relevant timestamp is absent, the statically introduced edge applies and
// the producing timestamp is inferred (td = tu for data edges and local
// control edges, tc = tb - delta for distance-inferred control edges).
// Use-use edges redirect resolution to the earlier use without adding its
// statement to the slice.
//
// There is one traversal: every query runs on the shared kernel in
// internal/slicing/batch. Slice and SliceObserved are its one-criterion
// case (no memo), SliceAll its batched one. Each traversal point — a
// statement instance or a pending use-slot redirect — carries a bitmask
// of the criteria whose slices it belongs to, kept in the kernel's
// timestamp-indexed visited state, so a subgraph shared by several slices
// (the common case: the paper's 25 criteria are all end-of-run
// definitions that converge on the program's core) is walked once instead
// of once per criterion, and its dependence resolution (label probes,
// default-edge inference) is memoized once per unique (location,
// timestamp) rather than recomputed for every criterion that reaches it.
// Expansion goes through resolveUseDep/resolveCDDep, answered through the
// run's label-block cursors; an observed query's explain.Recorder sees
// each resolved hop as it is expanded.

var _ slicing.Explainer = (*Graph)(nil)

// SetWorkers is a no-op: every query runs one loop on the caller's
// goroutine. It stays for callers that still size a batch pool.
func (g *Graph) SetWorkers(int) {}

// key places a traversal point for the kernel. A timestamp is one node
// execution, whose points are its statement copies followed by its use
// slots: a statement instance (slot == -1) sits at its copy's index, a
// use-slot redirect introduced by a use-use edge at
// len(Stmts)+UseOff+slot. A location the graph does not have gets index
// -1, which the kernel drops; so does a timestamp outside [0, g.ts), an
// inference rule having fired for a timestamp it has no evidence about
// (possible only after graph corruption).
func (g *Graph) key(loc InstLoc, ts int64, slot int32) batch.Key {
	if uint(loc.Node) >= uint(len(g.nodes)) {
		return batch.Key{TS: ts, Idx: -1}
	}
	n := g.nodes[loc.Node]
	if uint(loc.Stmt) >= uint(len(n.Stmts)) || slot < -1 || slot >= int32(n.nUses(loc.Stmt)) {
		return batch.Key{TS: ts, Idx: -1}
	}
	idx := loc.Stmt
	if slot >= 0 {
		idx = int32(len(n.Stmts)) + n.Stmts[loc.Stmt].UseOff + slot
	}
	return batch.Key{
		Ref:   uint64(uint32(loc.Node))<<32 | uint64(uint32(loc.Stmt)),
		TS:    ts,
		Idx:   idx,
		Width: int32(len(n.Stmts) + len(n.UseSets)),
	}
}

// locate unpacks a key placed by key.
func (g *Graph) locate(k batch.Key) (loc InstLoc, ts int64, slot int32) {
	loc = InstLoc{Node: NodeID(int32(k.Ref >> 32)), Stmt: int32(uint32(k.Ref))}
	slot = -1
	if k.Idx != loc.Stmt {
		n := g.nodes[loc.Node]
		slot = k.Idx - int32(len(n.Stmts)) - n.Stmts[loc.Stmt].UseOff
	}
	return loc, k.TS, slot
}

// Slice implements slicing.Slicer as the one-criterion kernel run.
// Address criteria resolve against the graph's final last-definition
// table; statement-instance criteria are rejected (OPT timestamps are
// node ordinals, which are not meaningful to callers holding FP
// ordinals).
func (g *Graph) Slice(c slicing.Criterion) (*slicing.Slice, *slicing.Stats, error) {
	return g.SliceObserved(c, nil)
}

// SliceObserved implements slicing.Explainer: the one-criterion kernel
// run, recording each resolved dependence hop into rec when non-nil.
func (g *Graph) SliceObserved(c slicing.Criterion, rec *explain.Recorder) (*slicing.Slice, *slicing.Stats, error) {
	outs, stats, err := g.sliceAll([]slicing.Criterion{c}, rec)
	if err != nil {
		return nil, nil, err
	}
	return outs[0], stats, nil
}

// SliceAll implements slicing.MultiSlicer: it answers every criterion with
// the slice Slice would produce. The aggregate stats count each unique
// instance and label probe once, not once per criterion that reaches it —
// that sharing is the point.
func (g *Graph) SliceAll(cs []slicing.Criterion) ([]*slicing.Slice, *slicing.Stats, error) {
	return g.sliceAll(cs, nil)
}

// sliceAll is the kernel run behind every query; rec is non-nil only for
// one-criterion observed queries.
func (g *Graph) sliceAll(cs []slicing.Criterion, rec *explain.Recorder) ([]*slicing.Slice, *slicing.Stats, error) {
	keys := make([]batch.Key, len(cs))
	for i, c := range cs {
		if c.Stmt >= 0 {
			return nil, nil, fmt.Errorf("opt: statement-instance criteria are not supported (OPT timestamps are node ordinals)")
		}
		d, ok := g.defOf(c.Addr)
		if !ok {
			return nil, nil, fmt.Errorf("opt: address %d was never defined", c.Addr)
		}
		if rec != nil {
			rec.Criterion(g.StmtAt(d.Loc).ID, d.Ts)
		}
		keys[i] = g.key(d.Loc, d.Ts, -1)
	}
	var closures *closureTable
	if g.cfg.Shortcuts {
		closures = g.shortcuts()
	}
	outs, stats, ctr := batch.Slices(batch.Config{
		States:     &g.runs,
		Timestamps: g.ts,
		NumStmts:   len(g.p.Stmts),
		Lists:      len(g.allLabels),
		Expand: func(k batch.Key, exp *batch.Expansion, stats *slicing.Stats, cc *labelblock.CursorCache) {
			x := expander{g: g, closures: closures, exp: exp, stats: stats, cc: cc, rec: rec}
			x.point(k)
		},
	}, keys)
	if reg := g.tel; reg != nil {
		reg.Counter("slice.batch.block_merges").Add(ctr.Merges + ctr.BlockHits)
		reg.Counter("slice.batch.dropped_keys").Add(ctr.Dropped)
	}
	return outs, stats, nil
}

// expander resolves one traversal point into the kernel's expansion
// arenas, through the run's label-block cursors and the graph's
// shortcut closures (nil when shortcuts are off); rec (nil unless the
// query is observed) sees every resolved hop.
type expander struct {
	g        *Graph
	closures *closureTable
	exp      *batch.Expansion
	stats    *slicing.Stats
	cc       *labelblock.CursorCache
	rec      *explain.Recorder
}

// point expands a statement instance (slot == -1: its statements, uses
// and control edge, or its shortcut closure) or a use-point redirect
// (slot >= 0: that one use slot, without adding its statement).
func (x *expander) point(k batch.Key) {
	g := x.g
	loc, ts, slot := g.locate(k)
	if slot >= 0 {
		x.use(loc, slot, ts, true)
		return
	}
	x.stats.Instances++
	if x.closures != nil {
		g.cShortcut.Inc()
		cl := x.closures.get(g, loc)
		if x.rec != nil {
			x.observeClosure(loc, ts, cl)
		}
		x.exp.Stmts = append(x.exp.Stmts, cl.stmts...)
		for _, u := range cl.uFront {
			x.use(InstLoc{Node: loc.Node, Stmt: u.stmt}, u.slot, ts, !u.member)
		}
		for _, cf := range cl.cFront {
			x.cd(loc.Node, cf.occ, ts, cf.via)
		}
		return
	}
	sc := &g.nodes[loc.Node].Stmts[loc.Stmt]
	x.exp.Stmts = append(x.exp.Stmts, sc.S.ID)
	x.rec.Visit(sc.S.ID, ts)
	for s := range sc.S.Uses {
		x.use(loc, int32(s), ts, false)
	}
	x.cd(loc.Node, sc.OccIdx, ts, loc.Stmt)
}

// observeClosure records shortcut membership: every closure statement
// beyond the root is witnessed as one shortcut hop from the root
// instance (all closure members share the root's timestamp — the
// closure is the all-static, same-timestamp subgraph).
func (x *expander) observeClosure(loc InstLoc, ts int64, cl *closure) {
	n := x.g.nodes[loc.Node]
	root := n.Stmts[loc.Stmt].S.ID
	x.rec.Visit(root, ts)
	for _, id := range cl.stmts {
		if id == root {
			continue
		}
		x.rec.Edge(root, ts, false, -1, id, ts, explain.KindShortcut, false)
	}
	// Frontier uses reached through SUU redirect chains belong to skipped
	// statements: anchor them as use points so the dependence resolved
	// there chains back to the root rather than dead-ending.
	for _, u := range cl.uFront {
		if u.member {
			continue
		}
		x.rec.EdgeUse(root, ts, false, -1, n.Stmts[u.stmt].S.ID, u.slot, ts, explain.KindShortcut)
	}
}

// use resolves one use slot; fromUse marks resolution on behalf of a
// use-point redirect target (an OPT-2 chain) rather than an instance's
// own use.
func (x *expander) use(loc InstLoc, slot int32, ts int64, fromUse bool) {
	d := x.g.resolveUseDep(loc, slot, ts, x.stats, x.cc, x.rec)
	if x.rec != nil && d.kind != depNone {
		from := x.g.StmtAt(loc).ID
		if d.kind == depInst {
			x.rec.Edge(from, ts, fromUse, slot, x.g.StmtAt(d.loc).ID, d.ts, d.why, false)
		} else {
			x.rec.EdgeUse(from, ts, fromUse, slot, x.g.StmtAt(d.loc).ID, d.slot, d.ts, d.why)
		}
	}
	x.add(d)
}

// cd resolves the control dependence of one occurrence; fromSi is the
// statement copy the edge is traversed on behalf of (for witnesses).
func (x *expander) cd(node NodeID, occIdx int32, ts int64, fromSi int32) {
	d := x.g.resolveCDDep(node, occIdx, ts, x.stats, x.cc, x.rec)
	if x.rec != nil && d.kind == depInst {
		from := x.g.nodes[node].Stmts[fromSi].S.ID
		x.rec.Edge(from, ts, false, -1, x.g.StmtAt(d.loc).ID, d.ts, d.why, true)
	}
	x.add(d)
}

// add appends a resolved dependence as a downstream traversal point.
func (x *expander) add(d dep) {
	switch d.kind {
	case depInst:
		x.exp.Targets = append(x.exp.Targets, x.g.key(d.loc, d.ts, -1))
	case depUse:
		x.exp.Targets = append(x.exp.Targets, x.g.key(d.loc, d.ts, d.slot))
	}
}

// dep is the resolved dependence of one use slot or control edge: nothing
// (depNone), a producing statement instance to slice in (depInst), or a
// redirect to an earlier use of the same value (depUse).
type dep struct {
	kind depKind
	loc  InstLoc
	ts   int64
	slot int32        // depUse only
	why  explain.Kind // how the dependence was resolved (observed queries)
}

type depKind uint8

const (
	depNone depKind = iota
	depInst
	depUse
)

// resolveUseDep locates the dependence of one use slot at time ts.
// Dynamic labels take precedence; the static edge is the fallback (paper
// Fig. 13, cases (a) and (c)). Read-only on the graph after Finalize.
// The dep's why field classifies the resolution for observed queries.
func (g *Graph) resolveUseDep(loc InstLoc, slot int32, ts int64, stats *slicing.Stats, cc *labelblock.CursorCache, obs *explain.Recorder) dep {
	us := g.nodes[loc.Node].useSet(loc.Stmt, slot)
	for i := range us.Dyn {
		td, probes, found := g.findLabel(us.Dyn[i].L, ts, cc, obs)
		stats.LabelProbes += probes
		if found {
			if td < 0 {
				return dep{} // tombstone: this execution had no producer
			}
			why := explain.KindExplicit
			if us.Dyn[i].L.shared {
				why = explain.KindExplicitOPT3
			}
			return dep{kind: depInst, loc: us.Dyn[i].Tgt, ts: td, why: why}
		}
	}
	switch us.Static {
	case SDU, SDUPartial:
		return dep{kind: depInst, loc: InstLoc{Node: loc.Node, Stmt: us.StTgtStmt}, ts: ts, why: explain.KindInferredOPT1}
	case SUU:
		// Redirect to the earlier use at the same timestamp; its statement
		// is not added to the slice.
		return dep{kind: depUse, loc: InstLoc{Node: loc.Node, Stmt: us.StTgtStmt}, slot: us.StTgtSlot, ts: ts, why: explain.KindInferredOPT2}
	case SNone:
		if tgt, td, ok := us.Default.Resolve(ts); ok {
			return dep{kind: depInst, loc: tgt, ts: td, why: explain.KindInferredAdaptive}
		}
	}
	return dep{}
}

// resolveCDDep locates the controlling instance of a block occurrence at
// time ts. CDSame chains (control-equivalent occurrences of superblock
// nodes) are followed iteratively; an observer counts each deferral and
// the eventual resolution is attributed to the final hop.
func (g *Graph) resolveCDDep(node NodeID, occIdx int32, ts int64, stats *slicing.Stats, cc *labelblock.CursorCache, obs *explain.Recorder) dep {
	for {
		occ := &g.nodes[node].Occs[occIdx]
		for i := range occ.CD.Dyn {
			ta, probes, found := g.findLabel(occ.CD.Dyn[i].L, ts, cc, obs)
			stats.LabelProbes += probes
			if found {
				if ta < 0 {
					return dep{} // tombstone: no controlling instance
				}
				why := explain.KindExplicit
				if occ.CD.Dyn[i].L.shared {
					why = explain.KindExplicitOPT6
				}
				return dep{kind: depInst, loc: occ.CD.Dyn[i].Tgt, ts: ta, why: why}
			}
		}
		switch occ.CD.Static {
		case CDLocal:
			tgtOcc := g.nodes[node].Occs[occ.CD.StTgtOcc]
			termIdx := tgtOcc.StmtOff + int32(len(tgtOcc.B.Stmts)) - 1
			return dep{kind: depInst, loc: InstLoc{Node: node, Stmt: termIdx}, ts: ts, why: explain.KindInferredOPT5}
		case CDDelta:
			return dep{kind: depInst, loc: occ.CD.StTgt, ts: ts - occ.CD.Delta, why: explain.KindInferredOPT4}
		case CDSame:
			// Control equivalent to an earlier occurrence of the same node
			// execution: resolve that occurrence's edge at the same time.
			obs.CDSameDeferral()
			occIdx = occ.CD.StTgtOcc
			continue
		case CDNone:
			if tgt, ta, ok := occ.CD.Default.Resolve(ts); ok {
				return dep{kind: depInst, loc: tgt, ts: ta, why: explain.KindInferredAdaptive}
			}
		}
		return dep{}
	}
}
