// Package dataflow implements the static analyses the OPT representation's
// static component is built from (paper §3.4): postdominators and control
// dependence, reaching definitions, reaching uses, and the chop-based
// simultaneous/must reachability used to prove label sharing safe
// (OPT-3 and OPT-6).
package dataflow

import (
	"dynslice/internal/ir"
)

// PostDom holds the immediate-postdominator relation for one function.
type PostDom struct {
	Fn    *ir.Func
	ipdom map[*ir.Block]*ir.Block // immediate postdominator; Exit maps to itself
	depth map[*ir.Block]int       // depth in the postdominator tree
}

// PostDominators computes the postdominator tree of f using the iterative
// Cooper-Harvey-Kennedy algorithm on the reverse CFG rooted at f.Exit.
// Blocks that cannot reach the exit (e.g. bodies of provably infinite
// loops) are absent from the result; the IR produced by the lowerer always
// ends functions with a return, so in practice all blocks are covered for
// terminating programs.
func PostDominators(f *ir.Func) *PostDom {
	pd := &PostDom{Fn: f, ipdom: map[*ir.Block]*ir.Block{}, depth: map[*ir.Block]int{}}
	exit := f.Exit

	// Reverse post-order on the reverse CFG (i.e. order blocks so that a
	// block appears before its CFG predecessors where possible).
	var order []*ir.Block
	index := map[*ir.Block]int{}
	seen := map[*ir.Block]bool{}
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, p := range b.Preds {
			dfs(p)
		}
		order = append(order, b)
	}
	dfs(exit)
	// order is post-order of the reverse-CFG DFS; reverse it for RPO.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for i, b := range order {
		index[b] = i
	}

	pd.ipdom[exit] = exit
	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for index[a] > index[b] {
				a = pd.ipdom[a]
			}
			for index[b] > index[a] {
				b = pd.ipdom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == exit {
				continue
			}
			var newIdom *ir.Block
			for _, s := range b.Succs {
				if pd.ipdom[s] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = s
				} else {
					newIdom = intersect(newIdom, s)
				}
			}
			if newIdom != nil && pd.ipdom[b] != newIdom {
				pd.ipdom[b] = newIdom
				changed = true
			}
		}
	}
	// Depths for LCA-style walks.
	var depthOf func(b *ir.Block) int
	depthOf = func(b *ir.Block) int {
		if b == exit {
			return 0
		}
		if d, ok := pd.depth[b]; ok {
			return d
		}
		d := depthOf(pd.ipdom[b]) + 1
		pd.depth[b] = d
		return d
	}
	for _, b := range order {
		if pd.ipdom[b] != nil {
			depthOf(b)
		}
	}
	return pd
}

// PostDominates reports whether a postdominates b (reflexively).
func (pd *PostDom) PostDominates(a, b *ir.Block) bool {
	for {
		if a == b {
			return true
		}
		next, ok := pd.ipdom[b]
		if !ok || next == b {
			return false
		}
		b = next
	}
}

// ControlDeps computes intraprocedural control dependence at block
// granularity (Ferrante, Ottenstein, Warren) and stores the ancestor sets
// in Block.CDAncestors. A block b is control dependent on branch block h
// iff h has a successor s such that b postdominates s, and b does not
// postdominate h. Self-dependence (loop headers) is allowed.
func ControlDeps(f *ir.Func, pd *PostDom) {
	for _, b := range f.Blocks {
		b.CDAncestors = nil
	}
	anc := map[*ir.Block]map[*ir.Block]bool{}
	for _, h := range f.Blocks {
		if len(h.Succs) < 2 {
			continue
		}
		for _, s := range h.Succs {
			// Walk the postdominator tree from s up to (exclusive)
			// ipdom(h); every block on the way is control dependent on h.
			stop := pd.ipdom[h]
			for runner := s; runner != nil && runner != stop; runner = pd.ipdom[runner] {
				if anc[runner] == nil {
					anc[runner] = map[*ir.Block]bool{}
				}
				anc[runner][h] = true
				if pd.ipdom[runner] == runner {
					break
				}
			}
		}
	}
	for _, b := range f.Blocks {
		for h := range anc[b] {
			b.CDAncestors = append(b.CDAncestors, h)
		}
		// Deterministic order.
		sortBlocks(b.CDAncestors)
	}
}

func sortBlocks(bs []*ir.Block) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].ID < bs[j-1].ID; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}
