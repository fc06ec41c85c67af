package opt

import (
	"sync/atomic"

	"dynslice/internal/ir"
)

// Shortcut edges (paper §3.4 "Using Shortcuts to Speed Up Traversal"):
// when several static edges would be traversed in sequence, their
// contribution to a slice is the same in every execution, so it can be
// precomputed. A closure generalizes the paper's single shortcut edge: it
// is the transitive closure of the all-static, same-timestamp subgraph
// reachable from one statement copy — the set of statements skipped plus
// the frontier of points where dynamic labels (or timestamp arithmetic)
// must still be consulted.
//
// Closures are computed lazily after the build completes, so an edge
// counts as "all static" only if it also accumulated no fallback labels.
// The first query allocates the memo table (building and loading a graph
// never do), and queries fill it without a lock.

type useRef struct {
	stmt, slot int32
}

// useEntry is one use-frontier entry. member distinguishes uses owned by
// a closure statement from uses reached through a use-to-use (SUU)
// redirect chain, whose statement is skipped over rather than sliced in —
// witnesses must anchor the latter at a use point, not an instance.
type useEntry struct {
	useRef
	member bool
}

// cdRef is one control-dependence frontier entry: the occurrence whose
// edge must be consulted dynamically, plus the statement copy whose
// traversal reached it (the consumer side of the eventual witness hop).
type cdRef struct {
	occ int32
	via int32
}

type closure struct {
	stmts  []ir.StmtID
	uFront []useEntry
	cFront []cdRef
}

// closureTable memoizes one closure per statement copy: copy si of node
// n is slot off[n]+si. Each slot is an atomic pointer and a closure is
// published by compare-and-swap, so concurrent queries share the table
// without a lock: workers racing on an empty slot each compute the
// closure, and all of them use the one that was stored first.
type closureTable struct {
	off []int32
	cl  []atomic.Pointer[closure]
}

// shortcuts returns the graph's closure table, allocating it on first
// use.
func (g *Graph) shortcuts() *closureTable {
	if t := g.closures.Load(); t != nil {
		return t
	}
	t := &closureTable{off: make([]int32, len(g.nodes))}
	var n int32
	for i, nd := range g.nodes {
		t.off[i] = n
		n += int32(len(nd.Stmts))
	}
	t.cl = make([]atomic.Pointer[closure], n)
	if g.closures.CompareAndSwap(nil, t) {
		return t
	}
	return g.closures.Load()
}

// get returns the static closure of the statement copy at loc, computing
// and publishing it on first use.
func (t *closureTable) get(g *Graph, loc InstLoc) *closure {
	slot := &t.cl[t.off[loc.Node]+loc.Stmt]
	if c := slot.Load(); c != nil {
		return c
	}
	slot.CompareAndSwap(nil, g.closure(loc))
	return slot.Load()
}

// closure computes the static closure of the statement copy at loc.
func (g *Graph) closure(loc InstLoc) *closure {
	n := g.nodes[loc.Node]
	c := &closure{}
	seenStmt := map[int32]bool{}
	seenUse := map[useRef]bool{}
	seenOcc := map[int32]bool{}

	var visitStmt func(si int32)
	var visitUse func(si, slot int32)
	var visitOcc func(occIdx, via int32)

	visitUse = func(si, slot int32) {
		r := useRef{si, slot}
		if seenUse[r] {
			return
		}
		seenUse[r] = true
		us := n.useSet(si, slot)
		if len(us.Dyn) > 0 || us.Default.Mode != DefNone {
			c.uFront = append(c.uFront, useEntry{useRef: r})
			return
		}
		switch us.Static {
		case SDU, SDUPartial:
			visitStmt(us.StTgtStmt)
		case SUU:
			visitUse(us.StTgtStmt, us.StTgtSlot)
		}
	}
	visitOcc = func(occIdx, via int32) {
		if seenOcc[occIdx] {
			return
		}
		seenOcc[occIdx] = true
		cd := &n.Occs[occIdx].CD
		if len(cd.Dyn) == 0 && cd.Default.Mode == DefNone {
			switch cd.Static {
			case CDLocal:
				tgtOcc := n.Occs[cd.StTgtOcc]
				visitStmt(tgtOcc.StmtOff + int32(len(tgtOcc.B.Stmts)) - 1)
				return
			case CDSame:
				// The deferral keeps the statement that initiated the chain.
				visitOcc(cd.StTgtOcc, via)
				return
			case CDNone:
				return
			}
		}
		c.cFront = append(c.cFront, cdRef{occ: occIdx, via: via})
	}
	visitStmt = func(si int32) {
		if seenStmt[si] {
			return
		}
		seenStmt[si] = true
		sc := &n.Stmts[si]
		c.stmts = append(c.stmts, sc.S.ID)
		for k := range sc.S.Uses {
			visitUse(si, int32(k))
		}
		visitOcc(sc.OccIdx, si)
	}

	visitStmt(loc.Stmt)
	// Membership is settled only now: a frontier use recorded early may
	// belong to a statement another path later pulled into the closure.
	for i := range c.uFront {
		c.uFront[i].member = seenStmt[c.uFront[i].stmt]
	}
	return c
}
