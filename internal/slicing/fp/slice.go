package fp

import (
	"fmt"

	"dynslice/internal/ir"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/batch"
	"dynslice/internal/slicing/explain"
	"dynslice/internal/slicing/labelblock"
)

// Slicing runs on the shared traversal kernel (internal/slicing/batch):
// Slice and SliceObserved are its one-criterion case, SliceAll its
// batched one, so there is one FP traversal.

var _ slicing.Explainer = (*Graph)(nil)

// SetWorkers is a no-op: every query runs one loop on the caller's
// goroutine. It stays for callers that still size a batch pool.
func (g *Graph) SetWorkers(int) {}

// key places a statement instance for the kernel: its block execution,
// its position in the block and the block's length. A statement the
// program does not have gets index -1, which the kernel drops.
func (g *Graph) key(stmt ir.StmtID, ts int64) batch.Key {
	if uint(stmt) >= uint(len(g.p.Stmts)) {
		return batch.Key{TS: ts, Idx: -1}
	}
	s := g.p.Stmts[stmt]
	return batch.Key{Ref: uint64(stmt), TS: ts, Idx: int32(s.Idx), Width: int32(len(s.Block.Stmts))}
}

// Slice implements slicing.Slicer as the one-criterion kernel run.
func (g *Graph) Slice(c slicing.Criterion) (*slicing.Slice, *slicing.Stats, error) {
	return g.SliceObserved(c, nil)
}

// SliceObserved implements slicing.Explainer: the one-criterion kernel
// run, recording each traversed dependence into rec when non-nil. Every
// FP dependence is an explicit stored label, so all hops carry
// explain.KindExplicit — FP is the accounting baseline the OPT
// attribution is compared against.
func (g *Graph) SliceObserved(c slicing.Criterion, rec *explain.Recorder) (*slicing.Slice, *slicing.Stats, error) {
	outs, stats, err := g.sliceAll([]slicing.Criterion{c}, rec)
	if err != nil {
		return nil, nil, err
	}
	return outs[0], stats, nil
}

// SliceAll implements slicing.MultiSlicer: N criteria are answered in one
// kernel run per 64-criterion chunk. Each statement instance carries a
// bitmask of the criteria whose slices reach it, so a subgraph shared by
// several slices is walked — and its per-slot label searches performed —
// once instead of once per criterion. The run's label-block cursors
// answer clustered probes from one decoded block (the block-granular
// merge), each search starting where the previous one in that list
// ended. Every returned slice is identical to what Slice would produce;
// the aggregate stats count each unique instance and label probe once.
func (g *Graph) SliceAll(cs []slicing.Criterion) ([]*slicing.Slice, *slicing.Stats, error) {
	return g.sliceAll(cs, nil)
}

// sliceAll is the kernel run behind every query; rec is non-nil only for
// one-criterion observed queries.
func (g *Graph) sliceAll(cs []slicing.Criterion, rec *explain.Recorder) ([]*slicing.Slice, *slicing.Stats, error) {
	keys := make([]batch.Key, len(cs))
	for i, c := range cs {
		start := instRef{stmt: c.Stmt, ts: c.TS}
		if c.Stmt < 0 {
			d, ok := g.defOf(c.Addr)
			if !ok {
				return nil, nil, fmt.Errorf("fp: address %d was never defined", c.Addr)
			}
			start = d
		}
		rec.Criterion(start.stmt, start.ts)
		keys[i] = g.key(start.stmt, start.ts)
	}
	outs, stats, ctr := batch.Slices(batch.Config{
		States:     &g.runs,
		Timestamps: g.ts,
		NumStmts:   len(g.p.Stmts),
		Lists:      int(g.slotOff[len(g.p.Stmts)]) + len(g.cdEdges),
		Expand: func(k batch.Key, exp *batch.Expansion, stats *slicing.Stats, cc *labelblock.CursorCache) {
			g.expandInstance(k, exp, stats, cc, rec)
		},
	}, keys)
	if reg := g.tel; reg != nil {
		reg.Counter("slice.batch.block_merges").Add(ctr.Merges + ctr.BlockHits)
		reg.Counter("slice.batch.dropped_keys").Add(ctr.Dropped)
	}
	return outs, stats, nil
}

// expandInstance resolves one statement instance's dependences — one
// label search per use slot plus the enclosing block's control edge —
// through the run's block cursors, reporting each hop to rec.
func (g *Graph) expandInstance(k batch.Key, exp *batch.Expansion, stats *slicing.Stats, cc *labelblock.CursorCache, rec *explain.Recorder) {
	stmt, ts := ir.StmtID(k.Ref), k.TS
	stats.Instances++
	rec.Visit(stmt, ts)
	exp.Stmts = append(exp.Stmts, stmt)
	s := g.p.Stmt(stmt)
	if slots := g.useEdges[stmt]; slots != nil {
		off := int(g.slotOff[stmt])
		for i := range s.Uses {
			td, def, probes, found := cc.Find(off+i, &slots[i], ts)
			stats.LabelProbes += probes
			if found {
				if rec != nil {
					rec.Edge(stmt, ts, false, int32(i), ir.StmtID(def), td, explain.KindExplicit, false)
				}
				exp.Targets = append(exp.Targets, g.key(ir.StmtID(def), td))
			}
		}
	}
	ta, anc, probes, found := cc.Find(int(g.slotOff[len(g.p.Stmts)])+int(s.Block.ID), &g.cdEdges[s.Block.ID], ts)
	stats.LabelProbes += probes
	if found {
		if rec != nil {
			rec.Edge(stmt, ts, false, -1, ir.StmtID(anc), ta, explain.KindExplicit, true)
		}
		exp.Targets = append(exp.Targets, g.key(ir.StmtID(anc), ta))
	}
}
