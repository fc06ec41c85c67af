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

// SetWorkers bounds the worker pool batched queries (SliceAll) run on;
// n <= 0 means GOMAXPROCS. Atomic, so concurrent engine callers may
// retune it between (but not during) their own queries.
func (g *Graph) SetWorkers(n int) { g.workers.Store(int32(n)) }

// fpKey packs a statement instance into a scheduler key.
func fpKey(stmt ir.StmtID, ts int64) batch.Key {
	return batch.Key{K1: uint64(uint32(stmt)), K2: uint64(ts)}
}

// Slice implements slicing.Slicer as the one-criterion kernel run.
func (g *Graph) Slice(c slicing.Criterion) (*slicing.Slice, *slicing.Stats, error) {
	return g.SliceObserved(c, nil)
}

// SliceObserved implements slicing.Explainer: the one-criterion kernel
// run, recording each traversed dependence into rec when non-nil (one
// seed means one worker, so rec is never shared). Every FP dependence is
// an explicit stored label, so all hops carry explain.KindExplicit — FP
// is the accounting baseline the OPT attribution is compared against.
func (g *Graph) SliceObserved(c slicing.Criterion, rec *explain.Recorder) (*slicing.Slice, *slicing.Stats, error) {
	outs, stats, err := g.sliceAll([]slicing.Criterion{c}, rec)
	if err != nil {
		return nil, nil, err
	}
	return outs[0], stats, nil
}

// SliceAll implements slicing.MultiSlicer: N criteria are answered in one
// work-stealing traversal per 64-criterion chunk. Each statement instance
// carries a bitmask of the criteria whose slices reach it, merged through
// the shared flat visited table, so a subgraph shared by several slices
// is walked — and its per-slot label searches performed — once instead of
// once per criterion. Per-worker label-block cursors answer clustered
// probes from one decoded block (the block-granular merge), each search
// starting where the previous one in that list ended. Every
// returned slice is identical to what Slice would produce; the aggregate
// stats count each unique instance and label probe once.
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
		keys[i] = fpKey(start.stmt, start.ts)
	}
	outs, stats, ctr := batch.Slices(batch.Config{
		Workers:  int(g.workers.Load()),
		NumStmts: len(g.p.Stmts),
		Lists:    int(g.slotOff[len(g.p.Stmts)]) + len(g.cdEdges),
		Expand: func(k batch.Key, exp *batch.Expansion, stats *slicing.Stats, cc *labelblock.CursorCache) {
			g.expandInstance(k, exp, stats, cc, rec)
		},
	}, keys)
	if reg := g.tel; reg != nil {
		reg.Counter("slice.batch.steals").Add(ctr.Steals)
		reg.Counter("slice.batch.block_merges").Add(ctr.Merges + ctr.BlockHits)
	}
	return outs, stats, nil
}

// expandInstance resolves one statement instance's dependences — one
// label search per use slot plus the enclosing block's control edge —
// through the worker's block cursors, reporting each hop to rec.
func (g *Graph) expandInstance(k batch.Key, exp *batch.Expansion, stats *slicing.Stats, cc *labelblock.CursorCache, rec *explain.Recorder) {
	stmt := ir.StmtID(int32(uint32(k.K1)))
	ts := int64(k.K2)
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
				exp.Targets = append(exp.Targets, fpKey(ir.StmtID(def), td))
			}
		}
	}
	ta, anc, probes, found := cc.Find(int(g.slotOff[len(g.p.Stmts)])+int(s.Block.ID), &g.cdEdges[s.Block.ID], ts)
	stats.LabelProbes += probes
	if found {
		if rec != nil {
			rec.Edge(stmt, ts, false, -1, ir.StmtID(anc), ta, explain.KindExplicit, true)
		}
		exp.Targets = append(exp.Targets, fpKey(ir.StmtID(anc), ta))
	}
}
